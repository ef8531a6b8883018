// Budgetsweep shows the energy-accuracy dial the linear-programming
// framework provides: the same network and samples planned under a
// range of energy budgets, for all three approximate PROSPECTORs, with
// the exact algorithms' costs for reference. It also demonstrates
// planning under transient link failures (Section 4.4): per-edge
// failure statistics inflate edge costs before optimization, and the
// execution simulates the reroutes.
//
//	go run ./examples/budgetsweep
package main

import (
	"fmt"
	"log"
	"math/rand"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

func main() {
	const (
		nodes = 60
		k     = 10
	)
	rng := rand.New(rand.NewSource(5))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		log.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		log.Fatal(err)
	}
	samples := sample.MustNewSet(nodes, k, 0)
	if err := samples.AddAll(workload.Draw(src, 15)); err != nil {
		log.Fatal(err)
	}

	// Transient failures: every edge fails 5-15% of the time and a
	// reroute costs 60% extra. Planning sees the inflated costs.
	failProb := make([]float64, nodes)
	for i := 1; i < nodes; i++ {
		failProb[i] = 0.05 + 0.10*rng.Float64()
	}
	const reroute = 0.6
	model := energy.DefaultModel()
	costs := plan.NewCosts(net, model)
	if err := costs.InflateForFailures(failProb, reroute); err != nil {
		log.Fatal(err)
	}
	env := exec.Env{
		Net:   net,
		Costs: plan.NewCosts(net, model), // execution charges base costs...
		Failures: &exec.FailureModel{ // ...plus simulated reroutes
			Prob: failProb, RerouteFactor: reroute, Rng: rng,
		},
	}

	cfg := core.Config{Net: net, Costs: costs, Samples: samples, K: k}
	naive, err := core.NaiveKPlan(net, k)
	if err != nil {
		log.Fatal(err)
	}
	naiveCost := naive.CollectionCost(net, costs)
	truth := workload.Draw(src, 10)

	var planners []core.Planner
	for _, kind := range []string{core.KindGreedy, core.KindLPNoFilter, core.KindLPFilter} {
		pl, err := core.New(kind, cfg)
		if err != nil {
			log.Fatal(err)
		}
		planners = append(planners, pl)
	}

	fmt.Printf("%-8s", "budget")
	for _, pl := range planners {
		fmt.Printf(" %16s", pl.Name())
	}
	fmt.Println()
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.45, 0.65} {
		budget := frac * naiveCost
		fmt.Printf("%6.0f%% ", 100*frac)
		for _, pl := range planners {
			p, err := pl.Plan(budget)
			if err != nil {
				log.Fatal(err)
			}
			cost, acc := 0.0, 0.0
			for _, vals := range truth {
				res, err := exec.Run(env, p, vals)
				if err != nil {
					log.Fatal(err)
				}
				cost += res.Ledger.Total()
				acc += res.Accuracy(vals, k)
			}
			n := float64(len(truth))
			fmt.Printf("  %5.1fmJ/%4.0f%%", cost/n, 100*acc/n)
		}
		fmt.Println()
	}
	fmt.Printf("\nexact baselines: NAIVE-%d %.1f mJ", k, naiveCost)
	res, err := exec.NaiveBatch(env, truth[0], k, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("; NAIVE-1 %.1f mJ in %d messages\n", res.Ledger.Total(), res.Ledger.Messages)
}
