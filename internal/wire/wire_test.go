package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// frames covering every opcode and every field, including zero values
// and maximal uvarints.
func sampleFrames() []Frame {
	return []Frame{
		{Op: OpHello, Session: 0, Seq: Version},
		{Op: OpHello, Session: ^uint64(0), Seq: 7},
		{Op: OpIncrement, Name: "jobs", Seq: 42, Amount: 3},
		{Op: OpIncrement, Name: "", Seq: 0, Amount: ^uint64(0)},
		{Op: OpCheck, Name: "jobs", ID: 9, Level: 1 << 40},
		{Op: OpCancel, ID: 9},
		{Op: OpReset, Name: "phase", ID: 11},
		{Op: OpStats, Name: "phase", ID: 12},
		{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 0xdeadbeef},
		{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 0},
		{Op: OpWaitFor, ID: 13, Pred: PredSum, Target: 1 << 50, Watch: []Watch{
			{Name: "a"}, {Name: "b"},
		}},
		{Op: OpWaitFor, ID: 14, Pred: PredThreshold, K: 3, Watch: []Watch{
			{Name: "q0", Level: 7}, {Name: "q1", Level: 7}, {Name: "q2", Level: 9},
			{Name: "q3", Level: ^uint64(0)}, {Name: "q4", Level: 1},
		}},
		{Op: OpWaitForCancel, ID: 14},
		{Op: OpWake, ID: 9, Level: 1 << 40},
		{Op: OpCancelled, ID: 9},
		{Op: OpIncAck, Seq: 42},
		{Op: OpResetOK, ID: 11},
		{Op: OpError, ID: 11, Msg: "counter busy: goroutines suspended"},
		{Op: OpStatsReply, ID: 12, Stats: Stats{
			PeakLevels: 1, SatisfiedLevels: 2, Broadcasts: 3, ChannelCloses: 4,
			Suspends: 5, ImmediateChecks: 6, Increments: 7, SpinRounds: 8,
			FastPathIncrements: 9, Flushes: 10,
		}},
	}
}

func TestRoundTripEveryOpcode(t *testing.T) {
	for _, f := range sampleFrames() {
		buf := Append(nil, &f)
		got, err := Read(bufio.NewReader(bytes.NewReader(buf)))
		if err != nil {
			t.Fatalf("%s: Read: %v", f.Op, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("%s: round trip = %+v, want %+v", f.Op, got, f)
		}
	}
}

// TestBatchedFrames writes every sample frame into one buffer — the
// shape both sides' write batching produces — and reads them back in
// order, ending on a clean io.EOF.
func TestBatchedFrames(t *testing.T) {
	var buf []byte
	frames := sampleFrames()
	for i := range frames {
		buf = Append(buf, &frames[i])
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range frames {
		got, err := Read(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := Read(br); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestTruncatedFrame cuts a valid frame at every byte boundary: a cut
// inside a frame must surface as io.ErrUnexpectedEOF or a decode error,
// never a silent success or a clean EOF.
func TestTruncatedFrame(t *testing.T) {
	f := Frame{Op: OpCheck, Name: "jobs", ID: 9, Level: 300}
	buf := Append(nil, &f)
	for cut := 1; cut < len(buf); cut++ {
		_, err := Read(bufio.NewReader(bytes.NewReader(buf[:cut])))
		if err == nil {
			t.Fatalf("cut at %d/%d decoded successfully", cut, len(buf))
		}
		if err == io.EOF {
			t.Fatalf("cut at %d/%d reported clean EOF", cut, len(buf))
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	_, err := Read(bufio.NewReader(bytes.NewReader(hdr)))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestUnknownOpcodeRejected(t *testing.T) {
	if _, err := Decode([]byte{0x7f}); err == nil {
		t.Fatal("unknown opcode decoded successfully")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	buf := Append(nil, &Frame{Op: OpCancel, ID: 1})
	payload := append(buf[4:], 0x00)
	if _, err := Decode(payload); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes error", err)
	}
}

func TestOverlongNameRejected(t *testing.T) {
	f := Frame{Op: OpCheck, Name: strings.Repeat("x", MaxName+1), ID: 1, Level: 1}
	buf := Append(nil, &f)
	if _, err := Decode(buf[4:]); err == nil {
		t.Fatal("overlong name decoded successfully")
	}
}

// TestWaitForWatchBounds rejects empty and oversized watch sets at the
// decode boundary, before any server logic sees them.
func TestWaitForWatchBounds(t *testing.T) {
	over := make([]Watch, MaxWatch+1)
	for i := range over {
		over[i] = Watch{Name: "c", Level: 1}
	}
	f := Frame{Op: OpWaitFor, ID: 1, Pred: PredThreshold, K: 1, Watch: over}
	if _, err := Decode(Append(nil, &f)[4:]); err == nil {
		t.Fatalf("waitfor watching %d counters decoded successfully", len(over))
	}
	f.Watch = nil
	if _, err := Decode(Append(nil, &f)[4:]); err == nil {
		t.Fatal("waitfor watching zero counters decoded successfully")
	}
}

// TestWaitForTruncation cuts a maximal predicate frame at every byte.
func TestWaitForTruncation(t *testing.T) {
	f := Frame{Op: OpWaitFor, ID: 1 << 40, Pred: PredThreshold, K: 2, Watch: []Watch{
		{Name: "alpha", Level: 300}, {Name: "beta", Level: 1 << 33}, {Name: "gamma", Level: 1},
	}}
	buf := Append(nil, &f)
	for cut := 1; cut < len(buf); cut++ {
		_, err := Read(bufio.NewReader(bytes.NewReader(buf[:cut])))
		if err == nil {
			t.Fatalf("cut at %d/%d decoded successfully", cut, len(buf))
		}
		if err == io.EOF {
			t.Fatalf("cut at %d/%d reported clean EOF", cut, len(buf))
		}
	}
}

// FuzzDecode feeds arbitrary payloads to Decode, seeded with every
// sample frame's payload. Decode must never panic, and every payload it
// accepts must survive a semantic round trip: Append then Decode yields
// the same Frame. Byte identity is not required — binary.Uvarint
// accepts non-minimal encodings that Append never produces.
func FuzzDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(Append(nil, &fr)[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := Decode(payload)
		if err != nil {
			return
		}
		again, err := Decode(Append(nil, &got)[4:])
		if err != nil {
			t.Fatalf("re-encoded %s frame rejected: %v", got.Op, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip of %x = %+v, want %+v", payload, again, got)
		}
	})
}
