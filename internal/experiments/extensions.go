package experiments

import (
	"fmt"
	"math/rand"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/sim"
	"prospector/internal/stats"
	"prospector/internal/workload"
)

// SpatialConfig scales the spatial-correlation extension study.
type SpatialStudyConfig struct {
	Nodes        int
	K            int
	Samples      int
	Eval         int
	Trials       int
	Seed         int64
	BudgetFrac   float64
	LengthScales []float64 // 0 means the independent field
}

// DefaultSpatialStudyConfig sweeps correlation from none to strong.
func DefaultSpatialStudyConfig() SpatialStudyConfig {
	return SpatialStudyConfig{
		Nodes:        60,
		K:            12,
		Samples:      15,
		Eval:         10,
		Trials:       3,
		Seed:         8,
		BudgetFrac:   0.3,
		LengthScales: []float64{0, 5, 12, 25, 50},
	}
}

// SpatialStudy (extension beyond the paper) examines how spatial
// correlation — the setting the model-driven line of work assumes —
// affects the sampling-based planners. Correlated readings concentrate
// each epoch's top k in a region that shifts between epochs, a pattern
// samples capture only partially; the study measures how each planner
// degrades as the correlation length grows.
func SpatialStudy(cfg SpatialStudyConfig) (*Result, error) {
	aggs := map[string]*aggregate{
		"Greedy": newAggregate(), "LP-LF": newAggregate(), "LP+LF": newAggregate(),
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, ls := range cfg.LengthScales {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*87178291))
			net, err := network.Build(network.DefaultBuildConfig(cfg.Nodes), rng)
			if err != nil {
				return nil, err
			}
			var src workload.Source
			if ls == 0 {
				g, err := workload.NewGaussianField(workload.DefaultGaussianConfig(cfg.Nodes), rng)
				if err != nil {
					return nil, err
				}
				g.SetStdDev(4) // match the spatial field's marginal spread
				src = g
			} else {
				pos := make([]network.Point, cfg.Nodes)
				for i := range pos {
					pos[i] = net.Pos(network.NodeID(i))
				}
				scfg := workload.DefaultSpatialConfig(pos)
				scfg.LengthScale = ls
				s, err := workload.NewSpatialField(scfg, rng)
				if err != nil {
					return nil, err
				}
				src = s
			}
			set := sample.MustNewSet(cfg.Nodes, cfg.K, 0)
			if err := set.AddAll(workload.Draw(src, cfg.Samples)); err != nil {
				return nil, err
			}
			costs := plan.NewCosts(net, energy.DefaultModel())
			s := newScenario(
				core.Config{Net: net, Costs: costs, Samples: set, K: cfg.K},
				exec.Env{Net: net, Costs: costs},
				workload.Draw(src, cfg.Eval),
			)
			naive, err := s.naiveKCost(cfg.K)
			if err != nil {
				return nil, err
			}
			budget := cfg.BudgetFrac * naive
			planners, err := approxPlanners(s.cfg)
			if err != nil {
				return nil, err
			}
			for _, pl := range planners {
				p, err := pl.Plan(budget)
				if err != nil {
					return nil, err
				}
				_, acc, err := s.evaluate(p)
				if err != nil {
					return nil, err
				}
				aggs[pl.Name()].add(ls, 0, acc)
			}
		}
	}
	res := &Result{
		ID:     "spatial",
		Title:  "Extension: spatial correlation sweep",
		XLabel: "correlation length (m; 0 = independent)",
		YLabel: "accuracy (% of top k)",
		Notes: []string{
			fmt.Sprintf("nodes=%d k=%d budget=%.0f%% of Naive-k trials=%d",
				cfg.Nodes, cfg.K, 100*cfg.BudgetFrac, cfg.Trials),
			"correlated fields move the hot region between epochs; accuracy under a fixed budget drops as correlation grows",
		},
	}
	for _, name := range []string{"LP+LF", "LP-LF", "Greedy"} {
		res.Series = append(res.Series, Series{Name: name, Points: aggs[name].xValuePoints()})
	}
	return res, nil
}

// LossyMediumConfig scales the lossy-medium extension study.
type LossyMediumConfig struct {
	Nodes      int
	K          int
	Samples    int
	Eval       int
	Trials     int
	Seed       int64
	BudgetFrac float64
	LossProbs  []float64 // uniform per-edge loss levels to sweep
}

// DefaultLossyMediumConfig sweeps loss from none to severe.
func DefaultLossyMediumConfig() LossyMediumConfig {
	return LossyMediumConfig{
		Nodes:      50,
		K:          10,
		Samples:    12,
		Eval:       8,
		Trials:     3,
		Seed:       9,
		BudgetFrac: 0.35,
		LossProbs:  []float64{0, 0.1, 0.25, 0.45},
	}
}

// LossyMediumStudy (extension beyond the paper) replays the planner
// comparison through the discrete-event simulator with a lossy medium:
// retransmissions inflate energy and dropped messages cost accuracy.
// The paper's qualitative ranking should survive a realistic radio.
func LossyMediumStudy(cfg LossyMediumConfig) (*Result, error) {
	accAgg := map[string]*aggregate{"LP+LF": newAggregate(), "Naive-k": newAggregate()}
	costAgg := map[string]*aggregate{"LP+LF": newAggregate(), "Naive-k": newAggregate()}
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*472882027))
		s, err := gaussianScenario(cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, 0, rng)
		if err != nil {
			return nil, err
		}
		naive, err := s.naiveKCost(cfg.K)
		if err != nil {
			return nil, err
		}
		lf, err := core.NewLPFilter(s.cfg)
		if err != nil {
			return nil, err
		}
		lfPlan, err := lf.Plan(cfg.BudgetFrac * naive)
		if err != nil {
			return nil, err
		}
		nkPlan, err := core.NaiveKPlan(s.cfg.Net, cfg.K)
		if err != nil {
			return nil, err
		}
		for _, loss := range cfg.LossProbs {
			simCfg := sim.DefaultConfig(s.cfg.Net)
			if loss > 0 {
				probs := make([]float64, s.cfg.Net.Size())
				for i := range probs {
					probs[i] = loss
				}
				simCfg.LossProb = probs
				simCfg.Rng = rand.New(rand.NewSource(cfg.Seed + int64(trial) + int64(loss*1000)))
			}
			// Both plans draw from simCfg.Rng, so they run in a fixed
			// order: each one's losses depend on what the other drew.
			for _, run := range []struct {
				name string
				p    *plan.Plan
			}{{"LP+LF", lfPlan}, {"Naive-k", nkPlan}} {
				cost, acc := 0.0, 0.0
				for _, vals := range s.truth {
					res, err := sim.Run(simCfg, run.p, vals)
					if err != nil {
						return nil, err
					}
					cost += res.Ledger.Total()
					acc += exec.Accuracy(res.Returned, vals, cfg.K)
				}
				n := float64(len(s.truth))
				accAgg[run.name].add(loss, cost/n, 100*acc/n)
				costAgg[run.name].add(loss, cost/n, 0)
			}
		}
	}
	res := &Result{
		ID:     "lossymedium",
		Title:  "Extension: planners on a lossy radio medium (discrete-event sim)",
		XLabel: "per-link loss probability",
		YLabel: "accuracy (% of top k)",
		Notes: []string{
			fmt.Sprintf("nodes=%d k=%d budget=%.0f%% of Naive-k trials=%d",
				cfg.Nodes, cfg.K, 100*cfg.BudgetFrac, cfg.Trials),
		},
	}
	for _, name := range []string{"LP+LF", "Naive-k"} {
		res.Series = append(res.Series, Series{Name: name, Points: accAgg[name].xValuePoints()})
	}
	for _, name := range []string{"LP+LF", "Naive-k"} {
		pts := costAgg[name].xCostPoints()
		res.Series = append(res.Series, Series{Name: name + " mJ", Points: pts})
	}
	return res, nil
}

// NaiveTradeoffConfig scales the naive-family tradeoff study.
type NaiveTradeoffConfig struct {
	Nodes   int
	K       int
	Eval    int
	Trials  int
	Seed    int64
	Batches []int
}

// DefaultNaiveTradeoffConfig sweeps the batch size from NAIVE-1 to
// beyond k.
func DefaultNaiveTradeoffConfig() NaiveTradeoffConfig {
	return NaiveTradeoffConfig{
		Nodes:   60,
		K:       10,
		Eval:    8,
		Trials:  3,
		Seed:    10,
		Batches: []int{1, 2, 3, 5, 10, 20},
	}
}

// NaiveTradeoffStudy quantifies Section 2's stated tradeoff between the
// two naive exact algorithms: NAIVE-1 minimizes values transmitted at a
// prohibitive per-message overhead, NAIVE-k minimizes messages but
// ships many wasted values. The batched generalization exec.NaiveBatch
// interpolates; the study reports total energy, messages, and values
// per batch size, alongside the NAIVE-k endpoint.
func NaiveTradeoffStudy(cfg NaiveTradeoffConfig) (*Result, error) {
	eAgg := newAggregate()
	mAgg := newAggregate()
	vAgg := newAggregate()
	var nkEnergy []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*122949829))
		s, err := gaussianScenario(cfg.Nodes, cfg.K, 3, cfg.Eval, 0, rng)
		if err != nil {
			return nil, err
		}
		nk, err := core.NaiveKPlan(s.cfg.Net, cfg.K)
		if err != nil {
			return nil, err
		}
		for _, vals := range s.truth {
			res, err := exec.Run(s.env, nk, vals)
			if err != nil {
				return nil, err
			}
			nkEnergy = append(nkEnergy, res.Ledger.Total())
		}
		for _, batch := range cfg.Batches {
			for _, vals := range s.truth {
				res, err := exec.NaiveBatch(s.env, vals, cfg.K, batch)
				if err != nil {
					return nil, err
				}
				x := float64(batch)
				eAgg.add(x, res.Ledger.Total(), 0)
				mAgg.add(x, float64(res.Ledger.Messages), 0)
				vAgg.add(x, float64(res.Ledger.Values), 0)
			}
		}
	}
	res := &Result{
		ID:     "naivetradeoff",
		Title:  "Extension: the NAIVE-1 ... NAIVE-k tradeoff, interpolated",
		XLabel: "batch size (values per request)",
		YLabel: "energy (mJ) / messages / values",
		Series: []Series{
			{Name: "energy mJ", Points: eAgg.xCostPoints()},
			{Name: "messages", Points: mAgg.xCostPoints()},
			{Name: "values", Points: vAgg.xCostPoints()},
		},
		Notes: []string{
			fmt.Sprintf("nodes=%d k=%d trials=%d", cfg.Nodes, cfg.K, cfg.Trials),
			fmt.Sprintf("single-pass NAIVE-k endpoint: %.1f mJ", stats.Mean(nkEnergy)),
			"expected shape: messages fall and values rise with batch size; energy bottoms out at a mid batch but stays above single-pass NAIVE-k (request round-trips never amortize fully)",
		},
	}
	return res, nil
}
