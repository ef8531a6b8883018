package query

import (
	"fmt"
	"math/rand"

	"prospector/internal/core"
	"prospector/internal/plan"
	"prospector/internal/sample"
)

// Standing is a long-running top-k query driven by the adaptive
// controller of Section 4.4: the plan is re-optimized as the sample
// window drifts, proof-carrying spot checks tune the re-sampling rate,
// and every epoch's result streams back to the caller. Create one with
// Engine.Stand, then feed epochs through Step.
type Standing struct {
	engine *Engine
	query  *Query
	runner *core.Runner
	k      int
}

// Stand turns a parsed TOP-k query into a standing query. Only
// approximate planners can stand (GREEDY, LP-LF, LP+LF); proof/exact
// runs are one-shot by nature (use Run for those). The engine must
// already hold observations.
func (e *Engine) Stand(q *Query, policy core.AdaptivePolicy, rng *rand.Rand) (*Standing, error) {
	if q == nil {
		return nil, fmt.Errorf("query: nil query")
	}
	if q.Kind != TopK {
		return nil, fmt.Errorf("query: only TOP-k queries can stand")
	}
	if q.Planner == PlannerProof || q.Planner == PlannerExact {
		return nil, fmt.Errorf("query: planner %s cannot stand; use Run for one-shot proof/exact queries", q.Planner)
	}
	if len(e.epochs) == 0 {
		return nil, fmt.Errorf("query: no observations yet; call Observe first")
	}
	set, k, err := e.buildSamples(q)
	if err != nil {
		return nil, err
	}
	// The runner owns a windowed copy of the samples so its collector
	// can keep feeding it.
	window := q.Samples
	if window <= 0 {
		window = e.window
	}
	live := sample.MustNewSet(e.net.Size(), k, window)
	for j := 0; j < set.Len(); j++ {
		if err := live.Add(set.Values(j)); err != nil {
			return nil, err
		}
	}
	cfg := core.Config{Net: e.net, Costs: e.costs, Samples: live, K: k, Obs: e.obs}
	planner, err := core.New(string(q.Planner), cfg)
	if err != nil {
		return nil, err
	}
	budget, err := e.resolveBudget(q, k)
	if err != nil {
		return nil, err
	}
	runner, err := core.NewRunner(cfg, planner, budget, policy, rng)
	if err != nil {
		return nil, err
	}
	return &Standing{engine: e, query: q, runner: runner, k: k}, nil
}

// Step runs the standing query on one epoch of ground-truth readings
// and returns that epoch's answer. The epoch also feeds the engine's
// observation window.
func (s *Standing) Step(truth []float64) (*Answer, error) {
	res, err := s.runner.Step(truth)
	if err != nil {
		return nil, err
	}
	if err := s.engine.Observe(truth); err != nil {
		return nil, err
	}
	vals := res.Returned
	if len(vals) > s.k {
		vals = vals[:s.k]
	}
	if r := s.engine.obs; r != nil {
		r.Counter("query.rounds").Inc()
		r.Histogram("query.round_energy_mj", roundEnergyBounds).Observe(res.Ledger.Total())
	}
	return &Answer{
		Values: vals,
		Ledger: res.Ledger,
		Plan:   s.runner.Plan().String(),
	}, nil
}

// Stats exposes the controller's accumulated statistics.
func (s *Standing) Stats() core.RunnerStats { return s.runner.Stats }

// Plan returns the currently installed plan.
func (s *Standing) Plan() *plan.Plan { return s.runner.Plan() }

// EnergyBudgetCheck reports the standing query's mean per-epoch energy
// against its budget (collection + trigger + amortized install +
// sampling + spot checks), for telemetry.
func (s *Standing) EnergyBudgetCheck() (meanPerEpoch float64, ok bool) {
	st := s.runner.Stats
	if st.Epochs == 0 {
		return 0, true
	}
	mean := st.Energy.Total() / float64(st.Epochs)
	// Allow generous headroom: adaptation overhead (sampling, checks,
	// dissemination) legitimately adds to the per-collection budget.
	return mean, mean < 5*budgetOf(s)
}

func budgetOf(s *Standing) float64 {
	b, err := s.engine.resolveBudget(s.query, s.k)
	if err != nil {
		return 0
	}
	return b
}
