//go:build prospector_debug

package core

import (
	"strings"
	"sync"
	"testing"
)

// TestOwnerOverlappingCallsPanic proves the debug build turns a call
// that starts while another is still running on the same planner into
// a panic pointing at the contract.
func TestOwnerOverlappingCallsPanic(t *testing.T) {
	var o owner
	o.enter("planner")
	defer o.leave()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		o.enter("planner")
	}()
	v := <-got
	if v == nil {
		t.Fatal("overlapping enter did not panic")
	}
	msg, ok := v.(string)
	if !ok || !strings.Contains(msg, "not safe for concurrent use") {
		t.Fatalf("panic = %v, want a message pointing at the concurrency contract", v)
	}
}

// TestOwnerSerializedCallsAcrossGoroutines proves calls from two
// goroutines that a mutex serializes stay silent: the contract is no
// overlap, not one owning goroutine, and the serve tier shares each
// key's planner this way.
func TestOwnerSerializedCallsAcrossGoroutines(t *testing.T) {
	s := makeScenario(t, 5, 20, 4, 5)
	pl, err := NewLPFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range []float64{40, 70, 110} {
				mu.Lock()
				_, err := pl.Plan(b + float64(g))
				mu.Unlock()
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
