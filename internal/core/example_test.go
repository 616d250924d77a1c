package core_test

import (
	"fmt"
	"sync"

	"monotonic/internal/core"
)

// The fundamental pattern: a writer publishes through the counter, any
// number of readers pace themselves against it.
func ExampleCounter() {
	data := make([]int, 5)
	c := core.New()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range data {
			c.Check(uint64(i) + 1)
			fmt.Println("read", data[i])
		}
	}()
	for i := range data {
		data[i] = i * i
		c.Increment(1)
	}
	wg.Wait()
	// Output:
	// read 0
	// read 1
	// read 4
	// read 9
	// read 16
}

// Sim replays the paper's Figure 2 deterministically.
func ExampleSim() {
	s := core.NewSim()
	s.Check(5)     // T1
	s.Check(9)     // T2
	s.Check(5)     // T3
	s.Increment(7) // T0
	fmt.Println(s.Snapshot())
	s.Resume(5) // T1 resumes
	s.Resume(5) // T3 resumes
	fmt.Println(s.Snapshot())
	// Output:
	// value=7 waiting=[{level=5 count=2 set} {level=9 count=1 not-set}]
	// value=7 waiting=[{level=9 count=1 not-set}]
}

// Every implementation is constructed through the registry.
func ExampleNewImpl() {
	for _, impl := range core.Registry() {
		c := core.NewImpl(impl)
		c.Increment(3)
		c.Check(3)
		fmt.Println(impl, c.Value())
	}
	// Output:
	// list 3
	// heap 3
	// chan 3
	// broadcast 3
	// atomic 3
	// spin 3
	// sharded 3
}
