package core

import (
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Metric names exported by the planners when Config.Obs is set:
//
//	core.<planner>.plans               counter, plans produced
//	core.<planner>.plan_size           gauge, participants of the last plan
//	core.<planner>.bandwidth_total     gauge, total bandwidth of the last plan
//	core.<planner>.budget_utilization  gauge, collection cost / budget
//	core.frontier_hits                 counter, LP plans interpolated on a
//	                                   budget frontier piece, no solve
//	core.frontier_pieces               gauge, pieces on the frontier of the
//	                                   LP planner that last ranged a solve
//
// <planner> is the Planner's Name() (Greedy, LP-LF, LP+LF, Proof, ...).
// Config.Obs is additionally injected into the LP solve path, so the
// LP-based planners also emit the lp.* family (see internal/lp/obs.go),
// including lp.status.* outcome counters.

// finishPlan records planner-output metrics and passes the plan
// constructor's result through, so Plan methods can wrap their return
// expression in place: return finishPlan(cfg, name, budget)(plan.New...).
// Planning is off the hot path; registry lookups here are fine. With
// Config.Trace (or a parent Config.Span) set, each produced plan also
// emits one flat zero-length "core.plan" span — planning is untimed by
// design (deterministic, no wall clock) — carrying the planner name and
// plan shape, plus any extra fields (the LP planners' frontier=hit|miss).
func finishPlan(cfg Config, name string, budget float64, extra ...obs.Field) func(*plan.Plan, error) (*plan.Plan, error) {
	return func(p *plan.Plan, err error) (*plan.Plan, error) {
		if err != nil {
			return p, err
		}
		if r := cfg.Obs; r != nil {
			r.Counter("core." + name + ".plans").Inc()
			r.Gauge("core." + name + ".plan_size").Set(float64(p.Participants()))
			r.Gauge("core." + name + ".bandwidth_total").Set(float64(p.TotalBandwidth()))
			if budget > 0 {
				r.Gauge("core." + name + ".budget_utilization").Set(p.CollectionCost(cfg.Net, cfg.Costs) / budget)
			}
		}
		if cfg.Trace != nil || cfg.Span != nil {
			fields := []obs.Field{
				obs.F("planner", name),
				obs.F("kind", p.Kind.String()),
				obs.F("participants", p.Participants()),
				obs.F("bandwidth_total", p.TotalBandwidth()),
			}
			fields = append(fields, extra...)
			if cfg.Span != nil {
				cfg.Span.Span("core.plan", 0, 0, fields...)
			} else {
				cfg.Trace.Span("core.plan", 0, 0, fields...)
			}
		}
		return p, nil
	}
}
