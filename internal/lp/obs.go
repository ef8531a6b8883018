package lp

import (
	"time"

	"prospector/internal/obs"
)

// Metric names exported by the solver when Options.Obs is set:
//
//	lp.solves                  counter, one per Solve call
//	lp.status.<status>         counter per terminal status
//	lp.iterations              counter, simplex iterations: a primal one
//	                           pivots or flips a bound, a dual one picks
//	                           a row and pivots (with any flips its
//	                           ratio test passes)
//	lp.pivots                  counter, basis changes
//	lp.degenerate_pivots       counter, zero-step basis changes
//	lp.bound_flips             counter, nonbasic bound-to-bound moves
//	lp.refactorizations        counter, rebuilds of the basis LU factors
//	lp.solve_seconds           histogram of wall time per solve
//	lp.cold_solves             counter, solves that ran both cold phases
//	lp.warm_resolves           counter, solves served from a cached Basis
//	lp.warm_fallbacks          counter, warm attempts restarted cold
//	                           (stale or singular basis, iteration
//	                           limit, infeasible/unbounded verdict)
//	lp.warm_pivots             histogram, recovery pivots per warm re-solve
//	lp.warm_hit_rate           gauge, warm_resolves / (warm_resolves +
//	                           cold_solves + warm_fallbacks), kept
//	                           current per solve so end-of-run snapshots
//	                           and the live exposition agree

// solveSecondsBounds buckets solve wall time from 10µs to 10s.
var solveSecondsBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// warmPivotsBounds buckets recovery pivots per warm re-solve: the
// parametric hot path should live in the low buckets; mass in the high
// ones means the basis chain is not actually being reused.
var warmPivotsBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// statusCounterName precomputes the lp.status.* counter names so the
// per-solve metrics path never concatenates strings.
var statusCounterName = [...]string{
	Optimal:        "lp.status.optimal",
	Infeasible:     "lp.status.infeasible",
	Unbounded:      "lp.status.unbounded",
	IterationLimit: "lp.status.iteration-limit",
}

// statusCounter returns the precomputed counter name for st, falling
// back to a fixed name for out-of-range values.
func statusCounter(st Status) string {
	if st >= 0 && int(st) < len(statusCounterName) {
		return statusCounterName[st]
	}
	return "lp.status.invalid"
}

// recordSolve publishes one solve's statistics; no-op without a
// registry or tracer. The solve_seconds histogram is only fed when the
// caller injected a clock (timed): a solver without Options.Now has no
// wall-time signal to report, and observing zeros would skew the
// distribution. With Options.Trace (or a parent Options.Span) the solve
// additionally emits one flat "lp.solve" span carrying the outcome.
// The span's timeline is [0, 0]: traces must be byte-identical for a
// fixed seed, so wall time stays out of them — the deterministic
// iteration/pivot counts on the span are the solve-effort signal, and
// wall time lives only in the lp.solve_seconds histogram.
//
// kind partitions the solves: lp.cold_solves counts cold runs and
// warm fallbacks (which end as cold runs), lp.warm_resolves counts
// basis-reusing solves, so cold_solves + warm_resolves == solves.
func recordSolve(opts Options, sol *Solution, elapsed time.Duration, timed bool, kind solveKind) {
	if r := opts.Obs; r != nil {
		r.Counter("lp.solves").Inc()
		r.Counter(statusCounter(sol.Status)).Inc()
		r.Counter("lp.iterations").Add(int64(sol.Iterations))
		r.Counter("lp.pivots").Add(int64(sol.Pivots))
		r.Counter("lp.degenerate_pivots").Add(int64(sol.DegeneratePivots))
		r.Counter("lp.bound_flips").Add(int64(sol.BoundFlips))
		r.Counter("lp.refactorizations").Add(int64(sol.Refactorizations))
		warms := r.Counter("lp.warm_resolves")
		colds := r.Counter("lp.cold_solves")
		fallbacks := r.Counter("lp.warm_fallbacks")
		switch kind {
		case solveWarm:
			warms.Inc()
			r.Histogram("lp.warm_pivots", warmPivotsBounds).Observe(float64(sol.Pivots))
		case solveWarmFallback:
			colds.Inc()
			fallbacks.Inc()
		default:
			colds.Inc()
		}
		// Derived warm-hit rate, re-published per solve instead of by an
		// end-of-run hook: the final value is what a run's last snapshot
		// sees, and intermediate values feed the live exposition. A
		// fallback counts against the rate twice (once as a cold solve,
		// once as a failed warm attempt), penalizing chains that thrash.
		if denom := warms.Value() + colds.Value() + fallbacks.Value(); denom > 0 {
			r.Gauge("lp.warm_hit_rate").Set(float64(warms.Value()) / float64(denom))
		}
		if timed {
			r.Histogram("lp.solve_seconds", solveSecondsBounds).Observe(elapsed.Seconds())
		}
	}
	if opts.Trace != nil || opts.Span != nil {
		fields := []obs.Field{
			obs.FStr("status", sol.Status.String()),
			obs.FStr("kind", kind.String()),
			obs.FInt("iterations", int64(sol.Iterations)),
			obs.FInt("pivots", int64(sol.Pivots)),
		}
		if opts.Span != nil {
			opts.Span.Span("lp.solve", 0, 0, fields...)
		} else {
			opts.Trace.Span("lp.solve", 0, 0, fields...)
		}
	}
}
