package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"prospector/internal/core"
	"prospector/internal/exec"
	"prospector/internal/obs"
)

// The experiment harnesses are instrumented through a package-level
// registry/tracer pair because figure configs are numerous and
// plumbing an extra field through every one of them would dwarf the
// feature. SetObs is expected to be called once by cmd/experiments
// before any figure runs; trials then share the registry (which is
// concurrency-safe) across goroutines.
var (
	obsMu     sync.RWMutex
	obsReg    *obs.Registry // guarded by obsMu
	obsTracer *obs.Tracer   // guarded by obsMu
	obsSpan   *obs.Span     // guarded by obsMu
)

// SetObs attaches a metrics registry and/or tracer to every scenario
// the harnesses build from now on. Nil values detach.
func SetObs(r *obs.Registry, tr *obs.Tracer) {
	obsMu.Lock()
	obsReg, obsTracer = r, tr
	obsMu.Unlock()
}

// SetSpan parents every subsequent scenario's spans (planner, solver,
// executor) under s — typically one span per figure, so the trace tree
// groups the work by experiment. Nil detaches.
func SetSpan(s *obs.Span) {
	obsMu.Lock()
	// cmd/experiments publishes the figure span before any trial
	// goroutine starts; the obsMu release orders the write.
	obsSpan = s
	obsMu.Unlock()
}

func currentObs() (*obs.Registry, *obs.Tracer, *obs.Span) {
	obsMu.RLock()
	defer obsMu.RUnlock()
	return obsReg, obsTracer, obsSpan
}

// newScenario assembles a scenario with the package observability
// attached to both the planner config and the execution environment.
// The LP solver gets a wall clock only when metrics are on: the solver
// itself never reads time (the determinism analyzer enforces that), so
// the clock that feeds lp.solve_seconds is injected here, outside the
// deterministic core.
func newScenario(cfg core.Config, env exec.Env, truth [][]float64) *scenario {
	r, tr, sp := currentObs()
	cfg.Obs = r
	cfg.Trace = tr
	cfg.Span = sp
	env.Obs = r
	env.Trace = tr
	env.Span = sp
	if r != nil && cfg.LP.Now == nil {
		//lint:ignore determinism the clock only times solves for lp.solve_seconds; no plan or figure reads it
		cfg.LP.Now = time.Now
	}
	return &scenario{cfg: cfg, env: env, truth: truth}
}

// Breakdown renders the per-phase cost table of one experiment from
// two registry snapshots taken around it: where the joules and the
// solver time of that figure actually went.
func Breakdown(before, after *obs.Snapshot) string {
	cd := func(name string) int64 {
		var b int64
		if before != nil {
			b = before.Counters[name]
		}
		return after.Counters[name] - b
	}
	gd := func(name string) float64 {
		var b float64
		if before != nil {
			b = before.Gauges[name]
		}
		return after.Gauges[name] - b
	}
	collect := gd("exec.energy_mj.collection")
	trigger := gd("exec.energy_mj.trigger")
	requests := gd("exec.energy_mj.requests")
	total := collect + trigger + requests
	share := func(v float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * v / total
	}

	var b strings.Builder
	b.WriteString("per-phase cost breakdown:\n")
	fmt.Fprintf(&b, "  %-11s %14s %7s\n", "phase", "energy (mJ)", "share")
	fmt.Fprintf(&b, "  %-11s %14.1f %6.1f%%\n", "collection", collect, share(collect))
	fmt.Fprintf(&b, "  %-11s %14.1f %6.1f%%\n", "trigger", trigger, share(trigger))
	fmt.Fprintf(&b, "  %-11s %14.1f %6.1f%%\n", "requests", requests, share(requests))
	fmt.Fprintf(&b, "  %-11s %14.1f\n", "total", total)
	fmt.Fprintf(&b, "  traffic: %d messages, %d values, %d content bytes\n",
		cd("exec.messages"), cd("exec.values"), cd("exec.bytes"))

	solves := cd("lp.solves")
	if solves > 0 {
		var sumBefore float64
		if before != nil {
			if h, ok := before.Histograms["lp.solve_seconds"]; ok {
				sumBefore = h.Sum
			}
		}
		var solveSec float64
		if h, ok := after.Histograms["lp.solve_seconds"]; ok {
			solveSec = h.Sum - sumBefore
		}
		fmt.Fprintf(&b, "  LP: %d solves, %d iterations, %d pivots (%d degenerate), %.0f ms total solve time\n",
			solves, cd("lp.iterations"), cd("lp.pivots"), cd("lp.degenerate_pivots"), solveSec*1000)
		// Cold-vs-warm split of the solves: a healthy parametric sweep
		// shows one cold solve per (planner, trial) and warm re-solves
		// for the rest of the budget axis.
		fmt.Fprintf(&b, "  LP: %d cold solves, %d warm re-solves (%d fell back cold)\n",
			cd("lp.cold_solves"), cd("lp.warm_resolves"), cd("lp.warm_fallbacks"))
	}
	return b.String()
}
