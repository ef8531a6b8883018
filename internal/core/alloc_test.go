package core

import (
	"testing"
)

// TestParametricSolveAllocFree pins the runtime half of paramLP.solve's
// //alloc:none claim: once the program is built and the basis chain is
// established, serving a budget from the warm chain performs zero heap
// allocations. The static checker verifies the same path transitively
// through lp's annotated warm chain; the blessed call edge's cold
// cases (first solve, broken-chain recovery) never fire here because
// the chain stays intact.
func TestParametricSolveAllocFree(t *testing.T) {
	s := makeScenario(t, 5, 30, 6, 8)
	pl, err := NewLPNoFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first Plan builds the model and cold-solves; the second
	// establishes the warm chain's steady state.
	for i := 0; i < 2; i++ {
		if _, err := pl.Plan(60); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		sol, err := pl.solve(s.cfg, 60)
		if err != nil {
			t.Fatal(err)
		}
		_ = sol
	})
	if allocs != 0 {
		t.Fatalf("warm parametric solve allocated %v times per call, want 0", allocs)
	}
}
