// Command query runs declarative top-k / selection queries against a
// simulated sensor network, either one-shot (-q) or as a small REPL on
// stdin. It demonstrates the TAG-style front end over the PROSPECTOR
// planners.
//
//	query -q "SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF"
//	query -q "SELECT MEDIAN(value) FROM sensors"
//	echo "SELECT TOP 5 FROM sensors EXACT" | query
//
// The network and workload are synthetic (seeded Gaussian field); use
// -nodes / -seed to vary them. Each query plans against the observation
// window and executes on a fresh epoch. -manifest writes the session's
// run ledger (engine + planner metrics) at exit for `regress check`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs/telemetry"
	"prospector/internal/query"
	"prospector/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "query:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		nodes    = flag.Int("nodes", 40, "network size")
		seed     = flag.Int64("seed", 1, "workload seed")
		warmup   = flag.Int("warmup", 15, "observation epochs before querying")
		oneShot  = flag.String("q", "", "run a single query and exit")
		manifest = flag.String("manifest", "", "write the run manifest (JSON) here at exit ('-' for stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "query: unexpected argument %q (a query goes in -q or on stdin)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	sess, err := telemetry.Start("query", telemetry.Flags{Manifest: *manifest})
	if err != nil {
		return err
	}
	defer func() {
		err = sess.Finish(err, map[string]string{
			"nodes": fmt.Sprint(*nodes), "seed": fmt.Sprint(*seed),
			"warmup": fmt.Sprint(*warmup), "q": *oneShot,
		}, nil)
	}()

	rng := rand.New(rand.NewSource(*seed))
	net, err := network.Build(network.DefaultBuildConfig(*nodes), rng)
	if err != nil {
		return err
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(*nodes), rng)
	if err != nil {
		return err
	}
	eng, err := query.NewEngine(net, energy.DefaultModel(), 25)
	if err != nil {
		return err
	}
	eng.SetObs(sess.Registry(), nil)
	for e := 0; e < *warmup; e++ {
		if err := eng.Observe(src.Next()); err != nil {
			return err
		}
	}
	fmt.Printf("network %v; %d epochs observed\n", net, eng.Observations())

	execute := func(text string) {
		q, err := query.Parse(text)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		truth := src.Next()
		ans, err := eng.Run(q, truth)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		// Keep observing so standing queries adapt.
		if err := eng.Observe(truth); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		tag := "approximate"
		if ans.Exact {
			tag = "exact"
		}
		fmt.Printf("%s answer (%s; %s; %.1f mJ):\n", q.String(), tag, ans.Plan, ans.Ledger.Total())
		for i, v := range ans.Values {
			fmt.Printf("  #%-2d node %-3d = %.2f\n", i+1, v.Node, v.Val)
		}
		if q.Kind == query.TopK {
			fmt.Printf("  (ground-truth accuracy %.0f%%)\n", 100*exec.Accuracy(ans.Values, truth, q.K))
		}
	}

	if *oneShot != "" {
		execute(*oneShot)
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			fmt.Print("> ")
			continue
		}
		if strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			break
		}
		execute(line)
		fmt.Print("> ")
	}
	return sc.Err()
}
