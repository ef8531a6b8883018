//go:build prospector_debug

package core

import (
	"strings"
	"testing"
)

// TestOwnerSameGoroutine proves repeated use from the owning goroutine
// stays silent.
func TestOwnerSameGoroutine(t *testing.T) {
	var o owner
	o.assert("planner")
	o.assert("planner")
}

// TestOwnerCrossGoroutinePanics proves the debug build turns a
// cross-goroutine planner call into a panic naming both goroutines.
func TestOwnerCrossGoroutinePanics(t *testing.T) {
	var o owner
	o.assert("planner")
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		o.assert("planner")
	}()
	v := <-got
	if v == nil {
		t.Fatal("cross-goroutine assert did not panic")
	}
	msg, ok := v.(string)
	if !ok || !strings.Contains(msg, "single-goroutine") {
		t.Fatalf("panic = %v, want a message pointing at the single-goroutine contract", v)
	}
}
