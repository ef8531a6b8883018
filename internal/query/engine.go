package query

import (
	"fmt"
	"math"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
)

// Engine binds parsed queries to a concrete network and a window of
// observed epochs, then plans and executes them. It retains raw epochs
// so that each query can derive its own Boolean matrix (top-k or
// threshold marking) from the same observations.
type Engine struct {
	net    *network.Network
	model  energy.Model
	costs  *plan.Costs
	window int
	epochs [][]float64
	obs    *obs.Registry
	trace  *obs.Tracer
}

// SetObs attaches a metrics registry and/or tracer; both are threaded
// into every subsequent plan and execution (query.* plus the core.*,
// lp.*, and exec.* families). Nil values detach.
func (e *Engine) SetObs(r *obs.Registry, tr *obs.Tracer) {
	e.obs = r
	e.trace = tr
}

// NewEngine creates an engine holding at most window raw epochs
// (window <= 0 means 25).
func NewEngine(net *network.Network, model energy.Model, window int) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("query: engine needs a network")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		window = 25
	}
	return &Engine{
		net:    net,
		model:  model,
		costs:  plan.NewCosts(net, model),
		window: window,
	}, nil
}

// Observe feeds one epoch of full-network readings into the window.
func (e *Engine) Observe(values []float64) error {
	if len(values) != e.net.Size() {
		return fmt.Errorf("query: %d readings for %d nodes", len(values), e.net.Size())
	}
	e.epochs = append(e.epochs, append([]float64(nil), values...))
	if len(e.epochs) > e.window {
		e.epochs = e.epochs[len(e.epochs)-e.window:]
	}
	return nil
}

// Observations returns how many epochs the window currently holds.
func (e *Engine) Observations() int { return len(e.epochs) }

// Metric names exported by the engine when SetObs is called:
//
//	query.runs             counter, one-shot Run invocations
//	query.rounds           counter, standing-query Step rounds
//	query.exact_answers    counter, answers returned with Exact set
//	query.round_energy_mj  histogram, per-answer energy spend
//
// All plans and executions additionally emit the core.*, lp.*, and
// exec.* families through the same registry.

// roundEnergyBounds buckets per-round energy in millijoules.
var roundEnergyBounds = []float64{1, 5, 10, 50, 100, 500, 1000, 5000}

// recordAnswer tallies one answered query.
func (e *Engine) recordAnswer(a *Answer) *Answer {
	if e.obs == nil {
		return a
	}
	e.obs.Counter("query.runs").Inc()
	if a.Exact {
		e.obs.Counter("query.exact_answers").Inc()
	}
	e.obs.Histogram("query.round_energy_mj", roundEnergyBounds).Observe(a.Ledger.Total())
	return a
}

// Answer is the outcome of running a query on one epoch.
type Answer struct {
	// Values are the readings returned to the query station, ranked.
	Values []exec.ValueAt
	// Exact is true when the answer is guaranteed correct (EXACT
	// planner, or PROOF with everything proven).
	Exact bool
	// Proven counts the proven prefix for proof-carrying runs.
	Proven int
	// Ledger totals the energy spent answering.
	Ledger energy.Ledger
	// Plan describes the executed plan.
	Plan string
}

// Run plans the query against the observation window and executes it
// on the given epoch of ground-truth readings.
func (e *Engine) Run(q *Query, truth []float64) (*Answer, error) {
	if q == nil {
		return nil, fmt.Errorf("query: nil query")
	}
	if len(truth) != e.net.Size() {
		return nil, fmt.Errorf("query: %d readings for %d nodes", len(truth), e.net.Size())
	}
	if len(e.epochs) == 0 {
		return nil, fmt.Errorf("query: no observations yet; call Observe first")
	}
	set, k, err := e.buildSamples(q)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Net: e.net, Costs: e.costs, Samples: set, K: k, Obs: e.obs}
	budget, err := e.resolveBudget(q, k)
	if err != nil {
		return nil, err
	}
	env := exec.Env{Net: e.net, Costs: e.costs, Obs: e.obs, Trace: e.trace}

	switch q.Planner {
	case PlannerExact:
		ex, err := core.NewExact(cfg)
		if err != nil {
			return nil, err
		}
		if min := ex.MinPhase1Budget(); budget < min {
			budget = min * 1.1
		}
		res, err := ex.Run(env, truth, budget)
		if err != nil {
			return nil, err
		}
		led := res.Phase1
		led.Add(res.Phase2)
		return e.recordAnswer(&Answer{
			Values: res.Answer,
			Exact:  true,
			Proven: res.ProvenPhase1,
			Ledger: led,
			Plan:   fmt.Sprintf("exact two-phase, phase-1 budget %.1f mJ", budget),
		}), nil
	case PlannerProof:
		pp, err := core.NewProofPlanner(cfg)
		if err != nil {
			return nil, err
		}
		if min := pp.MinBudget(); budget < min {
			budget = min * 1.1
		}
		p, err := pp.Plan(budget)
		if err != nil {
			return nil, err
		}
		res, err := exec.Run(env, p, truth)
		if err != nil {
			return nil, err
		}
		vals := res.Returned
		if len(vals) > k {
			vals = vals[:k]
		}
		return e.recordAnswer(&Answer{
			Values: vals,
			Exact:  res.Proven >= k,
			Proven: res.Proven,
			Ledger: res.Ledger,
			Plan:   p.String(),
		}), nil
	default:
		pl, err := core.New(string(q.Planner), cfg)
		if err != nil {
			return nil, err
		}
		p, err := pl.Plan(budget)
		if err != nil {
			return nil, err
		}
		res, err := exec.Run(env, p, truth)
		if err != nil {
			return nil, err
		}
		vals := res.Returned
		if q.Kind == TopK && len(vals) > k {
			vals = vals[:k]
		}
		if q.Kind == Selection {
			var kept []exec.ValueAt
			for _, v := range vals {
				if v.Val > q.Threshold {
					kept = append(kept, v)
				}
			}
			vals = kept
		}
		return e.recordAnswer(&Answer{Values: vals, Ledger: res.Ledger, Plan: p.String()}), nil
	}
}

// buildSamples derives the query's Boolean matrix from the raw window
// and returns it with the effective answer-size bound k.
func (e *Engine) buildSamples(q *Query) (*sample.Set, int, error) {
	epochs := e.epochs
	if q.Samples > 0 && q.Samples < len(epochs) {
		epochs = epochs[len(epochs)-q.Samples:]
	}
	switch q.Kind {
	case TopK:
		if q.K > e.net.Size() {
			return nil, 0, fmt.Errorf("query: TOP %d exceeds the %d-node network", q.K, e.net.Size())
		}
		set, err := sample.NewSet(e.net.Size(), q.K, 0)
		if err != nil {
			return nil, 0, err
		}
		if err := set.AddAll(epochs); err != nil {
			return nil, 0, err
		}
		return set, q.K, nil
	case Selection:
		set, err := sample.NewGeneralSet(e.net.Size(), 0, sample.ThresholdMarker(q.Threshold))
		if err != nil {
			return nil, 0, err
		}
		if err := set.AddAll(epochs); err != nil {
			return nil, 0, err
		}
		// Effective answer size: the mean contributor count, at least 1.
		k := int(math.Ceil(float64(set.TotalOnes()) / float64(set.Len())))
		if k < 1 {
			k = 1
		}
		if k > e.net.Size() {
			k = e.net.Size()
		}
		return set, k, nil
	}
	return nil, 0, fmt.Errorf("query: unknown kind %v", q.Kind)
}

// resolveBudget converts the query's budget clause into millijoules,
// interpreting fractions against the NAIVE-k baseline.
func (e *Engine) resolveBudget(q *Query, k int) (float64, error) {
	naive, err := core.NaiveKPlan(e.net, k)
	if err != nil {
		return 0, err
	}
	base := naive.CollectionCost(e.net, e.costs)
	switch {
	case q.Budget.MJ > 0:
		return q.Budget.MJ, nil
	case q.Budget.Frac > 0:
		return q.Budget.Frac * base, nil
	default:
		// No budget clause: a generous default of half the baseline.
		return 0.5 * base, nil
	}
}

// Root returns the engine's network (handy for callers formatting
// answers).
func (e *Engine) Root() *network.Network { return e.net }
