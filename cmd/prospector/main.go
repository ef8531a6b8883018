// Command prospector demonstrates the full planning pipeline on one
// synthetic sensor network: it builds a random deployment, collects
// samples, plans a top-k query with the chosen PROSPECTOR algorithm
// under an energy budget, executes the plan on fresh epochs, and
// reports cost and accuracy against the NAIVE-k baseline.
//
// Usage:
//
//	prospector [-nodes N] [-k K] [-samples S] [-budget-frac F]
//	           [-planner greedy|lp-lf|lp+lf|proof|exact|naive] [-seed SEED] [-epochs E]
//	           [-describe] [-dot FILE] [-sim] [-loss P]
//	           [-metrics FILE] [-trace FILE] [-listen ADDR] [-pprof ADDR|DIR] [-manifest FILE]
//	           [-flight FILE] [-flight-rules FILE] [-hold DURATION]
//	           [-serve] [-serve-for D] [-serve-queue N]
//
// -sim executes through the discrete-event mote simulator (reporting
// latency and per-node energy) instead of the analytic executor;
// -loss adds a uniform per-link loss probability to the simulation.
//
// Observability: -metrics writes the run's Prometheus exposition at exit
// ("-" for stdout); -trace streams deterministic JSON-lines events —
// the run is wrapped in a root "query" span so tracetool can rebuild
// the full tree (query → plan/solve → epochs → per-node rounds);
// -listen serves the live registry at ADDR (/metrics, the same
// Prometheus exposition, plus the telemetry surfaces /healthz,
// /readyz, and /debug/telemetry) while the run executes; -pprof either
// serves net/http/pprof (value with a ":") or writes cpu.prof/heap.prof
// into a directory; -manifest writes the run ledger ("-" for stdout) —
// flags, environment, final metrics, and trace-derived aggregates when
// -trace names a file — after the run completes successfully.
//
// Live telemetry: whenever a registry exists, a telemetry collector
// windows its series — epoch-driven (now = epoch index) during the
// run, interval-driven (wall seconds, plus the go.* runtime bridge)
// under -listen. -flight keeps a bounded ring of recent trace records
// and dumps them to FILE when a rule from -flight-rules (the regress
// JSON grammar, judged against the live windowed series) breaches;
// read the dump with tracetool flight. -hold keeps the -listen
// endpoints up for a grace period after the run completes, so probes
// and scrapes can observe a short run's final state.
//
// Serving: -serve turns the process into a long-lived plan service
// (internal/serve) instead of a one-shot run. The planning state is
// frozen into snapshots, and /plan answers concurrent budget queries
// from one planner per planner kind, taking turns on it, behind
// admission control (see internal/serve). Requires -listen; -planner
// picks the default kind (greedy, lp-lf, lp+lf, or proof — exact and
// naive cannot be served) and /plan?planner= overrides it per
// request. -serve-for bounds the service lifetime (0: until
// SIGINT/SIGTERM); -serve-queue bounds the requests waiting for a
// planner before the service sheds. With -flight but no -flight-rules,
// the serving tier's stock rules (queue saturation, any shed, p99
// solve latency) arm the recorder.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/obs/telemetry"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/serve"
	"prospector/internal/sim"
	"prospector/internal/workload"
)

// epochMSBounds buckets the wall-clock milliseconds an epoch took.
// This is a wall-clock family: internal/ledger quarantines it (and its
// derived quantiles) into the manifest's environment block.
var epochMSBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// liveObs carries the per-epoch telemetry hooks through the reporting
// loops: the wall-clock epoch-duration histogram and the monitor tick
// that refreshes the windows and judges the flight rules.
type liveObs struct {
	mon     *telemetry.Monitor
	epochMS *obs.Histogram
	prev    time.Time
}

func newLiveObs(reg *obs.Registry, mon *telemetry.Monitor) *liveObs {
	return &liveObs{mon: mon,
		epochMS: reg.Histogram("exec.epoch_ms", epochMSBounds), prev: time.Now()}
}

// epoch observes one finished epoch — wall milliseconds since the
// previous epoch boundary — and samples the monitor on the epoch-index
// clock, so windowed series like exec.epoch_mj.p99 advance once per
// epoch during the run.
func (lv *liveObs) epoch(e int) error {
	if lv == nil {
		return nil
	}
	now := time.Now()
	lv.epochMS.Observe(float64(now.Sub(lv.prev).Microseconds()) / 1000)
	lv.prev = now
	return lv.mon.Sample(float64(e))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prospector:", err)
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
	fs := flag.NewFlagSet("prospector", flag.ExitOnError)
	var (
		nodes      = fs.Int("nodes", 60, "network size including the root")
		k          = fs.Int("k", 10, "top-k rank bound")
		nSamples   = fs.Int("samples", 15, "past samples used for planning")
		budgetFrac = fs.Float64("budget-frac", 0.3, "energy budget as a fraction of NAIVE-k's cost")
		planner    = fs.String("planner", "lp+lf", "greedy, lp-lf, lp+lf, proof, exact, or naive (the NAIVE-k baseline)")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		epochs     = fs.Int("epochs", 10, "evaluation epochs")
		describe   = fs.Bool("describe", false, "print the per-node plan table")
		dotFile    = fs.String("dot", "", "write the network+plan as Graphviz DOT to this file")
		useSim     = fs.Bool("sim", false, "execute through the discrete-event mote simulator")
		lossProb   = fs.Float64("loss", 0, "uniform per-link loss probability in [0, 1] for -sim")
		metrics    = fs.String("metrics", "", "write the /metrics exposition here at exit ('-' for stdout)")
		traceOut   = fs.String("trace", "", "stream JSON-lines trace events to this file ('-' for stdout)")
		listen     = fs.String("listen", "", "serve live /metrics and the telemetry surfaces at this address for the run's lifetime")
		pprofArg   = fs.String("pprof", "", "serve net/http/pprof at ADDR (contains ':') or write cpu/heap profiles into DIR")
		manifest   = fs.String("manifest", "", "write the run manifest (JSON) here at exit ('-' for stdout)")
		flight     = fs.String("flight", "", "dump the last retained trace records here when a live telemetry rule breaches")
		flightRls  = fs.String("flight-rules", "", "JSON rules (regress grammar) judged against live windowed series")
		hold       = fs.Duration("hold", 0, "keep the -listen endpoints up this long after the run completes")

		serveMode  = fs.Bool("serve", false, "run as a long-lived plan service on -listen instead of a one-shot run")
		serveFor   = fs.Duration("serve-for", 0, "shut the plan service down after this long (0: until SIGINT/SIGTERM)")
		serveQueue = fs.Int("serve-queue", 64, "plan service admission bound: max queued requests before shedding")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	if *serveMode && *listen == "" {
		return usageError{fmt.Errorf("-serve requires -listen")}
	}
	// Written so NaN fails too: a NaN loss would otherwise run lossless.
	if !(*lossProb >= 0 && *lossProb <= 1) {
		return usageError{fmt.Errorf("-loss %v is not a probability in [0, 1]", *lossProb)}
	}
	sf := telemetry.Flags{
		Metrics: *metrics, Trace: *traceOut, Pprof: *pprofArg, Manifest: *manifest,
		Listen: *listen, Flight: *flight, FlightRules: *flightRls, Hold: *hold,
	}
	if *serveMode {
		// The plan service drains on SIGTERM or -serve-for instead of
		// holding; a flight recorder without explicit rules gets the
		// serving tier's stock set.
		sf.Hold = 0
		sf.DefaultRules = serve.DefaultFlightRules(*serveQueue)
	}
	sess, err := telemetry.Start("prospector", sf)
	if err != nil {
		return err
	}
	// Registered first so it runs last (LIFO): the root span ends before
	// Finish flushes the tracer and parses the trace for the manifest.
	defer func() {
		err = sess.Finish(err, map[string]string{
			"planner": *planner, "nodes": fmt.Sprint(*nodes), "k": fmt.Sprint(*k),
			"samples": fmt.Sprint(*nSamples), "budget-frac": fmt.Sprint(*budgetFrac),
			"seed": fmt.Sprint(*seed), "epochs": fmt.Sprint(*epochs),
			"sim": fmt.Sprint(*useSim), "loss": fmt.Sprint(*lossProb),
		}, nil)
		if err == nil && *manifest != "" && *manifest != "-" {
			fmt.Printf("wrote %s\n", *manifest)
		}
	}()
	reg, mon := sess.Registry(), sess.Monitor()
	lv := newLiveObs(reg, mon)
	// In serve mode the HTTP surface is mounted by serveLoop once the
	// planning state exists — serve.Endpoints owns /healthz, /readyz,
	// and /debug/telemetry there, so mounting telemetry.Endpoints here
	// too would register duplicate mux patterns.
	if !*serveMode {
		bound, err := sess.Serve(telemetry.Endpoints(mon.Collector())...)
		if err != nil {
			return err
		}
		if bound != "" {
			fmt.Printf("serving /metrics, /healthz, /readyz, and /debug/telemetry on %s\n", bound)
		}
	}
	// The root span makes the whole run one tree for tracetool; its End
	// is deferred after Finish's defer, so it lands before the flush.
	var root *obs.Span
	if tr := sess.Tracer(); tr != nil {
		root = tr.StartSpan(nil, "query",
			0, obs.F("planner", *planner), obs.F("nodes", *nodes), obs.F("k", *k))
		defer root.End(0)
	}

	rng := rand.New(rand.NewSource(*seed))
	net, err := network.Build(network.DefaultBuildConfig(*nodes), rng)
	if err != nil {
		return err
	}
	fmt.Printf("network: %v\n", net)

	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(*nodes), rng)
	if err != nil {
		return err
	}
	set, err := sample.NewSet(*nodes, *k, 0)
	if err != nil {
		return err
	}
	if err := set.AddAll(workload.Draw(src, *nSamples)); err != nil {
		return err
	}
	model := energy.DefaultModel()
	costs := plan.NewCosts(net, model)
	// The LP solver never reads the wall clock itself (determinism
	// analyzer); the CLI injects one so lp.solve_seconds gets real data.
	cfg := core.Config{Net: net, Costs: costs, Samples: set, K: *k, Obs: reg,
		Trace: sess.Tracer(), Span: root, LP: lp.Options{Now: time.Now}}
	env := exec.Env{Net: net, Costs: costs, Obs: reg, Trace: sess.Tracer(), Span: root}

	if *serveMode {
		return serveLoop(sess, cfg, serveSettings{
			listen: *listen, kind: core.CanonicalKind(*planner), seed: *seed, nodes: *nodes, k: *k,
			queue: *serveQueue, dur: *serveFor,
		})
	}

	naivePlan, err := core.NaiveKPlan(net, *k)
	if err != nil {
		return err
	}
	naiveCost := naivePlan.CollectionCost(net, costs) + naivePlan.TriggerCost(net, costs)
	budget := *budgetFrac * naiveCost
	fmt.Printf("NAIVE-%d collection cost: %.1f mJ; budget: %.1f mJ (%.0f%%)\n",
		*k, naiveCost, budget, 100**budgetFrac)

	truth := workload.Draw(src, *epochs)
	switch *planner {
	case "exact":
		ex, err := core.NewExact(cfg)
		if err != nil {
			return err
		}
		if min := ex.MinPhase1Budget(); budget < min {
			fmt.Printf("raising budget to the proof minimum %.1f mJ\n", min*1.05)
			budget = min * 1.05
		}
		p, err := ex.Planner().Plan(budget)
		if err != nil {
			return err
		}
		for e, vals := range truth {
			res, err := ex.RunWithPlan(env, p, vals)
			if err != nil {
				return err
			}
			fmt.Printf("epoch %2d: phase1=%.1f mJ phase2=%.1f mJ proven=%d/%d mopped=%v top=%v\n",
				e, res.Phase1.Total(), res.Phase2.Total(), res.ProvenPhase1, *k,
				res.MoppedUp, heads(res.Answer, 3))
			if err := lv.epoch(e); err != nil {
				return err
			}
		}
		return nil
	case "proof":
		pp, err := core.NewProofPlanner(cfg)
		if err != nil {
			return err
		}
		if min := pp.MinBudget(); budget < min {
			fmt.Printf("raising budget to the proof minimum %.1f mJ\n", min*1.05)
			budget = min * 1.05
		}
		p, err := pp.Plan(budget)
		if err != nil {
			return err
		}
		return report(env, p, truth, *k, lv)
	case "naive":
		// The NAIVE-k baseline plan, runnable through -sim and tracing
		// like any other filtering plan (the budget does not apply).
		fmt.Printf("NAIVE-%d plan: %v\n", *k, naivePlan)
		return finish(naivePlan, env, net, truth, *k, *describe, *dotFile,
			*useSim, *lossProb, rng, reg, sess.Tracer(), root, lv)
	default:
		pl, err := core.New(*planner, cfg)
		if err != nil {
			return err
		}
		p, err := pl.Plan(budget)
		if err != nil {
			return err
		}
		fmt.Printf("%s plan: %v\n", pl.Name(), p)
		return finish(p, env, net, truth, *k, *describe, *dotFile,
			*useSim, *lossProb, rng, reg, sess.Tracer(), root, lv)
	}
}

// serveSettings carries the -serve* flags into serveLoop.
type serveSettings struct {
	listen, kind    string
	seed            int64
	nodes, k, queue int
	dur             time.Duration
}

// serveLoop runs the process as a plan service: freeze the planning
// state into snapshots, stand up the service, mount the serving
// surface on -listen, and drain cleanly on SIGINT/SIGTERM or after
// -serve-for elapses.
func serveLoop(sess *telemetry.Session, cfg core.Config, st serveSettings) error {
	base := serve.Key{
		Network: fmt.Sprintf("seed%d-n%d", st.seed, st.nodes),
		Gen:     cfg.Samples.Gen(),
		Planner: st.kind,
		K:       st.k,
	}
	// One snapshot per planner kind, built lazily; the service stamps
	// each key's planner from it.
	var mu sync.Mutex
	snaps := make(map[string]*core.Snapshot)
	getSnap := func(kind string) (*core.Snapshot, error) {
		mu.Lock()
		defer mu.Unlock()
		if s, ok := snaps[kind]; ok {
			return s, nil
		}
		s, err := core.NewSnapshot(cfg, kind)
		if err != nil {
			return nil, err
		}
		snaps[kind] = s
		return s, nil
	}
	// Fail fast: the default kind must freeze cleanly before listening.
	if _, err := getSnap(st.kind); err != nil {
		return err
	}
	provider := func(key serve.Key) (serve.PlannerSource, error) {
		if key.Network != base.Network || key.Gen != base.Gen {
			return nil, fmt.Errorf("this process serves %s/gen%d only", base.Network, base.Gen)
		}
		if key.K != base.K {
			return nil, fmt.Errorf("this process serves k=%d only", base.K)
		}
		return getSnap(key.Planner)
	}
	svc, err := serve.New(serve.Options{
		QueueDepth: st.queue, Now: time.Now, Obs: cfg.Obs,
	}, provider)
	if err != nil {
		return err
	}
	bound, err := sess.Serve(serve.Endpoints(svc, base, sess.Monitor().Collector())...)
	if err != nil {
		svc.Close()
		return err
	}
	fmt.Printf("plan service on %s: /plan (default planner %s, k=%d), /metrics, /healthz, /readyz, /debug/telemetry\n",
		bound, st.kind, st.k)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var timeout <-chan time.Time
	if st.dur > 0 {
		tm := time.NewTimer(st.dur)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case s := <-sig:
		fmt.Printf("received %v; draining the plan queue\n", s)
	case <-timeout:
		fmt.Printf("served for %s; draining the plan queue\n", st.dur)
	}
	svc.Close()
	return nil
}

// finish runs the shared tail of every non-exact planner mode:
// optional plan table / DOT dump, then execution through the simulator
// or the analytic executor.
func finish(p *plan.Plan, env exec.Env, net *network.Network, truth [][]float64,
	k int, describe bool, dotFile string, useSim bool, loss float64,
	rng *rand.Rand, reg *obs.Registry, tr *obs.Tracer, root *obs.Span, lv *liveObs) error {
	if describe {
		fmt.Print(p.Describe(net))
	}
	if dotFile != "" {
		if err := writeDOT(net, p, dotFile); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotFile)
	}
	if useSim {
		return simReport(net, p, truth, k, loss, rng, reg, tr, root, lv)
	}
	return report(env, p, truth, k, lv)
}

func writeDOT(net *network.Network, p *plan.Plan, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := net.WriteDOT(f, "prospector", p.Bandwidth); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simReport executes the plan through the discrete-event simulator,
// reporting latency, retransmissions, and the hottest radios.
func simReport(net *network.Network, p *plan.Plan, truth [][]float64, k int, loss float64, rng *rand.Rand, reg *obs.Registry, tr *obs.Tracer, root *obs.Span, lv *liveObs) error {
	if p.Kind == plan.Selection {
		return fmt.Errorf("-sim supports filtering/proof plans (use -planner lp+lf or proof)")
	}
	cfg := sim.DefaultConfig(net)
	cfg.Obs = reg
	cfg.Trace = tr
	cfg.Span = root
	if loss > 0 {
		probs := make([]float64, net.Size())
		for i := 1; i < net.Size(); i++ {
			probs[i] = loss
		}
		cfg.LossProb = probs
		cfg.Rng = rng
	}
	nodeEnergy := make([]float64, net.Size())
	totalAcc, totalCost, totalLat := 0.0, 0.0, 0.0
	retrans := 0
	for e, vals := range truth {
		res, err := sim.Run(cfg, p, vals)
		if err != nil {
			return err
		}
		acc := exec.Accuracy(res.Returned, vals, k)
		totalAcc += acc
		totalCost += res.Ledger.Total()
		totalLat += res.Latency
		retrans += res.Retransmissions
		for i, en := range res.NodeEnergy {
			nodeEnergy[i] += en
		}
		fmt.Printf("epoch %2d: cost=%.1f mJ latency=%.2fs accuracy=%.0f%% retrans=%d dropped=%d\n",
			e, res.Ledger.Total(), res.Latency, 100*acc, res.Retransmissions, res.Dropped)
		if err := lv.epoch(e); err != nil {
			return err
		}
	}
	n := float64(len(truth))
	fmt.Printf("mean: cost=%.1f mJ latency=%.2fs accuracy=%.1f%% (%d retransmissions total)\n",
		totalCost/n, totalLat/n, 100*totalAcc/n, retrans)
	// The three hottest radios: the lifetime bottlenecks.
	type hot struct {
		id network.NodeID
		mj float64
	}
	var hs []hot
	for i, mj := range nodeEnergy {
		hs = append(hs, hot{network.NodeID(i), mj})
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a].mj > hs[b].mj })
	fmt.Print("hottest radios:")
	for i := 0; i < 3 && i < len(hs); i++ {
		fmt.Printf(" node %d (%.1f mJ, depth %d)", hs[i].id, hs[i].mj, net.Depth(hs[i].id))
	}
	fmt.Println()
	return nil
}

func report(env exec.Env, p *plan.Plan, truth [][]float64, k int, lv *liveObs) error {
	totalAcc, totalCost := 0.0, 0.0
	for e, vals := range truth {
		res, err := exec.Run(env, p, vals)
		if err != nil {
			return err
		}
		acc := res.Accuracy(vals, k)
		totalAcc += acc
		totalCost += res.Ledger.Total()
		fmt.Printf("epoch %2d: cost=%.1f mJ accuracy=%.0f%% proven=%d top=%v\n",
			e, res.Ledger.Total(), 100*acc, res.Proven, heads(res.Returned, 3))
		if err := lv.epoch(e); err != nil {
			return err
		}
	}
	n := float64(len(truth))
	fmt.Printf("mean: cost=%.1f mJ accuracy=%.1f%%\n", totalCost/n, 100*totalAcc/n)
	return nil
}

func heads(vs []exec.ValueAt, n int) []string {
	var out []string
	for i := 0; i < n && i < len(vs); i++ {
		out = append(out, fmt.Sprintf("n%d=%.1f", vs[i].Node, vs[i].Val))
	}
	return out
}
