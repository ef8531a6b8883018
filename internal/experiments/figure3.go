package experiments

import (
	"fmt"
	"math/rand"

	"prospector/internal/core"
)

// Figure3Config scales the algorithm-comparison experiment.
type Figure3Config struct {
	Nodes   int
	K       int
	Samples int
	Eval    int // held-out epochs per trial
	Trials  int
	Seed    int64
	// BudgetFracs are the approximate planners' energy budgets as
	// fractions of the executed NAIVE-k cost.
	BudgetFracs []float64
	// AccuracySteps are the k' fractions at which the exact
	// algorithms' cost is measured (their accuracy axis).
	AccuracySteps []float64
}

// DefaultFigure3Config mirrors the paper's synthetic comparison at a
// scale the pure-Go simplex handles in seconds.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		Nodes:         80,
		K:             16,
		Samples:       20,
		Eval:          12,
		Trials:        3,
		Seed:          1,
		BudgetFracs:   []float64{0.06, 0.1, 0.16, 0.24, 0.34, 0.46, 0.6, 0.8},
		AccuracySteps: []float64{0.25, 0.5, 0.75, 1.0},
	}
}

// QuickFigure3Config is the smoke-test scale shared by `experiments
// -quick`, the CI regress gate, and the manifest-determinism tests.
// One trial matters: runTrials runs trials concurrently, so aggregate
// order (and hence float summation) is only reproducible with Trials=1.
func QuickFigure3Config() Figure3Config {
	cfg := DefaultFigure3Config()
	cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, cfg.Trials = 30, 6, 8, 5, 1
	return cfg
}

// Figure3 regenerates the paper's Figure 3: energy cost against
// accuracy for ORACLE, LP+LF, LP-LF, GREEDY, and NAIVE-k on
// independent-Gaussian data. Expected shape: NAIVE-k far right (most
// expensive per accuracy); GREEDY < LP-LF < LP+LF; ORACLE cheapest.
func Figure3(cfg Figure3Config) (*Result, error) {
	aggs := map[string]*aggregate{
		"Oracle": newAggregate(), "LP+LF": newAggregate(), "LP-LF": newAggregate(),
		"Greedy": newAggregate(), "Naive-k": newAggregate(),
	}
	trialErr := runTrials(cfg.Trials, func(trial int, record func(func())) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
		s, err := gaussianScenario(cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, 0, rng)
		if err != nil {
			return err
		}
		naive, err := s.naiveKCost(cfg.K)
		if err != nil {
			return err
		}
		// Exact algorithms: vary k' to trade cost for accuracy.
		for _, frac := range cfg.AccuracySteps {
			want := int(frac*float64(cfg.K) + 0.5)
			if want < 1 {
				want = 1
			}
			// NAIVE-k at k'.
			nk, err := core.NaiveKPlan(s.cfg.Net, want)
			if err != nil {
				return err
			}
			cost, _, err := s.evaluate(nk)
			if err != nil {
				return err
			}
			record(func() { aggs["Naive-k"].add(frac, cost, 100*frac) })
			// ORACLE at k': per-epoch plan from the true locations.
			oCost := 0.0
			for _, vals := range s.truth {
				op, err := core.OraclePlan(s.cfg.Net, vals, want)
				if err != nil {
					return err
				}
				oc, _, err := (&scenario{cfg: s.cfg, env: s.env, truth: [][]float64{vals}}).evaluate(op)
				if err != nil {
					return err
				}
				oCost += oc
			}
			record(func() { aggs["Oracle"].add(frac, oCost/float64(len(s.truth)), 100*frac) })
		}
		// Approximate planners across the budget sweep.
		planners, err := approxPlanners(s.cfg)
		if err != nil {
			return err
		}
		// Planner-major: each planner walks the whole budget axis before
		// the next starts, so its cached parametric LP serves the sweep
		// as one warm basis chain (one cold solve per planner per trial).
		for _, pl := range planners {
			name := pl.Name()
			for _, frac := range cfg.BudgetFracs {
				budget := frac * naive
				p, err := pl.Plan(budget)
				if err != nil {
					return fmt.Errorf("figure3: %s at budget %.1f: %w", name, budget, err)
				}
				cost, acc, err := s.evaluate(p)
				if err != nil {
					return err
				}
				frac := frac
				record(func() { aggs[name].add(frac, cost, acc) })
			}
		}
		return nil
	})
	if trialErr != nil {
		return nil, trialErr
	}
	res := &Result{
		ID:     "figure3",
		Title:  "Comparison of algorithms (independent Gaussians)",
		XLabel: "energy cost (mJ)",
		YLabel: "accuracy (% of top k)",
		Notes: []string{
			fmt.Sprintf("nodes=%d k=%d samples=%d trials=%d", cfg.Nodes, cfg.K, cfg.Samples, cfg.Trials),
			"expected shape: Oracle cheapest; LP+LF >= LP-LF >= Greedy; Naive-k far costlier",
		},
	}
	for _, name := range []string{"Oracle", "LP+LF", "LP-LF", "Greedy", "Naive-k"} {
		res.Series = append(res.Series, Series{Name: name, Points: aggs[name].costAccuracyPoints()})
	}
	return res, nil
}
