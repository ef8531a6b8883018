package exec

import (
	"io"
	"math/rand"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// TestChargeAllocFree pins the zero-allocation contract of chargeMsg
// (with its failure-model reroute), chargeTrigger, and execObs.request:
// with metrics and tracing enabled, the per-message accounting path
// performs zero heap allocations once the trace scratch has warmed.
func TestChargeAllocFree(t *testing.T) {
	parent := []network.NodeID{0, 0, 0, 1, 1, 2}
	net, err := network.New(parent, nil)
	if err != nil {
		t.Fatal(err)
	}
	bw := []int{0, 2, 1, 1, 1, 1}
	p, err := plan.NewFiltering(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{
		Net:   net,
		Costs: plan.NewCosts(net, energy.DefaultModel()),
		Obs:   obs.NewRegistry(),
		Trace: obs.NewTracer(io.Discard),
		Failures: &FailureModel{
			Prob:          []float64{0, 0.5, 0.5, 0.5, 0.5, 0.5},
			RerouteFactor: 0.5,
			Rng:           rand.New(rand.NewSource(1)),
		},
	}
	env = env.instrumented()
	var led energy.Ledger
	// Warm: grow the emitters' field scratch to the widest record.
	env.chargeMsg(&led, 3, 2, 1)
	env.chargeTrigger(&led, p)
	env.em.request(3, 0.5)

	allocs := testing.AllocsPerRun(100, func() {
		env.chargeMsg(&led, 3, 2, 1)
		env.chargeTrigger(&led, p)
		env.em.request(3, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("charge path allocated %v times per round, want 0", allocs)
	}
}

// BenchmarkExecCharge measures the instrumented per-message accounting
// path; its allocs/op must stay 0 (the CI bench smoke enforces this
// with -benchmem).
func BenchmarkExecCharge(b *testing.B) {
	parent := []network.NodeID{0, 0, 0, 1, 1, 2}
	net, err := network.New(parent, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.NewFiltering(net, []int{0, 2, 1, 1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	env := Env{
		Net:   net,
		Costs: plan.NewCosts(net, energy.DefaultModel()),
		Obs:   obs.NewRegistry(),
		Trace: obs.NewTracer(io.Discard),
	}
	env = env.instrumented()
	var led energy.Ledger
	env.chargeMsg(&led, 3, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.chargeMsg(&led, 3, 2, 1)
		env.chargeTrigger(&led, p)
	}
}
