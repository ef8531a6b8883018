// Quickstart: plan and execute an approximate top-k query over a
// simulated sensor network in ~40 lines of code.
//
// It walks the canonical pipeline: build a network, collect samples of
// past readings, plan with PROSPECTOR LP+LF under an energy budget,
// execute the plan on a fresh epoch, and inspect the result.
//
//	go run ./examples/quickstart
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
		nodes = 50
		k     = 8
	)
	rng := rand.New(rand.NewSource(42))

	// 1. Deploy: 50 motes in a 100x100 m field, min-hop spanning tree.
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployed:", net)

	// 2. Observe: readings come from per-node Gaussian distributions;
	//    keep 15 full-network samples for planning.
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		log.Fatal(err)
	}
	samples := sample.MustNewSet(nodes, k, 0)
	if err := samples.AddAll(workload.Draw(src, 15)); err != nil {
		log.Fatal(err)
	}

	// 3. Plan: PROSPECTOR LP+LF with a budget of 30% of what the exact
	//    NAIVE-k algorithm would spend.
	costs := plan.NewCosts(net, energy.DefaultModel())
	cfg := core.Config{Net: net, Costs: costs, Samples: samples, K: k}
	naive, err := core.NaiveKPlan(net, k)
	if err != nil {
		log.Fatal(err)
	}
	budget := 0.3 * naive.CollectionCost(net, costs)
	planner, err := core.NewLPFilter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p, err := planner.Plan(budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %v for a %.1f mJ collection budget\n", p, budget)

	// 4. Execute on a fresh epoch and compare with the truth.
	truth := src.Next()
	res, err := exec.Run(exec.Env{Net: net, Costs: costs}, p, truth)
	if err != nil {
		log.Fatal(err)
	}
	//    The budget covers the collection phase; the trigger that
	//    starts the epoch is spent on top of it.
	fmt.Printf("spent %.1f mJ on collection, %.1f mJ on the trigger\n",
		res.Ledger.Collection, res.Ledger.Trigger)
	fmt.Printf("accuracy %.0f%% of the true top %d\n", 100*res.Accuracy(truth, k), k)
	for i, v := range res.Returned {
		if i == k {
			break
		}
		fmt.Printf("  #%d node %d = %.2f\n", i+1, v.Node, v.Val)
	}
}
