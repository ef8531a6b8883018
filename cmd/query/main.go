// Command query runs declarative top-k / selection queries against a
// simulated sensor network, either one-shot (-q) or as a small REPL on
// stdin. It demonstrates the TAG-style front end over the PROSPECTOR
// planners.
//
//	query -q "SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF"
//	query -q "SELECT * FROM sensors WHERE value > 55 BUDGET 25%"
//	echo "SELECT TOP 5 FROM sensors EXACT" | query
//
// The network and workload are synthetic (seeded Gaussian field); use
// -nodes / -seed to vary them. Each query plans against the observation
// window and executes on a fresh epoch. -manifest writes the session's
// run ledger (engine + planner metrics) at exit for `regress check`.
//
// A -q query that fails to parse or run exits 1; the REPL prints the
// error and reads the next line.
package main

import (
	"bufio"
	"errors"
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
	if err := run(os.Args[1:]); err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "query: ") { // the engine's own errors carry it
			msg = "query: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line that parses but asks for something
// meaningless; main exits 2 on it, as the flag package does on a
// malformed one.
type usageError struct{ error }

func run(args []string) (err error) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		nodes    = fs.Int("nodes", 40, "network size")
		seed     = fs.Int64("seed", 1, "workload seed")
		warmup   = fs.Int("warmup", 15, "observation epochs before querying")
		oneShot  = fs.String("q", "", "run a single query and exit")
		manifest = fs.String("manifest", "", "write the run manifest (JSON) here at exit ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return usageError{fmt.Errorf("unexpected argument %q (a query goes in -q or on stdin)", fs.Arg(0))}
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

	execute := func(text string) error {
		q, err := query.Parse(text)
		if err != nil {
			return err
		}
		truth := src.Next()
		ans, err := eng.Run(q, truth)
		if err != nil {
			return err
		}
		// The answered epoch joins the window the next query plans on.
		if err := eng.Observe(truth); err != nil {
			return err
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
		return nil
	}

	if *oneShot != "" {
		return execute(*oneShot)
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
		if err := execute(line); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Print("> ")
	}
	return sc.Err()
}
