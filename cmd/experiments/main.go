// Command experiments regenerates the paper's figures and in-text
// studies, printing each as a text table and optionally writing CSV
// files for plotting.
//
// Usage:
//
//	experiments [-fig all|3|4|5|7|8|9|samplesize|installcost|spatial|lossymedium|naivetradeoff] [-csv DIR] [-quick] [-plot]
//	            [-metrics FILE] [-trace FILE] [-listen ADDR] [-pprof ADDR|DIR] [-manifest FILE]
//	            [-flight FILE] [-flight-rules FILE] [-hold DURATION]
//
// -quick shrinks every experiment to a smoke-test scale (seconds
// instead of minutes).
//
// Each figure prints a per-phase cost breakdown (collection, trigger,
// request energy plus traffic and LP solver totals) under its table.
// -metrics additionally writes the whole run's Prometheus exposition
// at exit ("-" for stdout); -trace streams JSON-lines trace events, one
// span per figure so tracetool can attribute work per experiment;
// -listen serves the live registry (/metrics, the same exposition,
// plus the telemetry surfaces /healthz, /readyz, and /debug/telemetry)
// while the sweep runs — the main use case for watching long sweeps;
// -pprof serves net/http/pprof (value with ":") or writes
// cpu.prof/heap.prof into a directory; -manifest
// writes the run ledger ("-" for stdout) — one JSON document with the
// run's flags, environment, final metrics, per-figure wall time, and
// (when -trace names a file) the trace-derived aggregates — the
// artifact `regress check` gates on.
//
// Live telemetry: a collector windows the registry's series, sampled
// once per finished figure (now = figure index) and, under -listen,
// once per second (wall clock, plus the go.* runtime bridge). -flight
// keeps a bounded ring of recent trace records and dumps them to FILE
// when a rule from -flight-rules (the regress JSON grammar, judged
// against the live windowed series) breaches; -hold keeps the -listen
// endpoints up for a grace period after the sweep completes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"prospector/internal/experiments"
	"prospector/internal/obs"
	"prospector/internal/obs/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() (err error) {
	fig := flag.String("fig", "all", "which experiment to run: all, 3, 4, 5, 7, 8, 9, samplesize, installcost, spatial, lossymedium, naivetradeoff")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files into")
	quick := flag.Bool("quick", false, "shrink experiments to smoke-test scale")
	plot := flag.Bool("plot", false, "render an ASCII chart under each table")
	metrics := flag.String("metrics", "", "write the run's /metrics exposition here at exit ('-' for stdout)")
	traceOut := flag.String("trace", "", "stream JSON-lines trace events to this file ('-' for stdout)")
	listen := flag.String("listen", "", "serve live /metrics and the telemetry surfaces at this address for the run's lifetime")
	pprofArg := flag.String("pprof", "", "serve net/http/pprof at ADDR (contains ':') or write cpu/heap profiles into DIR")
	manifest := flag.String("manifest", "", "write the run manifest (JSON) here at exit ('-' for stdout)")
	flight := flag.String("flight", "", "dump the last retained trace records here when a live telemetry rule breaches")
	flightRls := flag.String("flight-rules", "", "JSON rules (regress grammar) judged against live windowed series")
	hold := flag.Duration("hold", 0, "keep the -listen endpoints up this long after the sweep completes")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	order := []string{"3", "4", "5", "7", "8", "9", "samplesize", "installcost", "spatial", "lossymedium", "naivetradeoff"}
	selected := order
	if strings.ToLower(*fig) != "all" {
		if !slices.Contains(order, *fig) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all %s\n", *fig, strings.Join(order, " "))
			os.Exit(2)
		}
		selected = []string{*fig}
	}

	// The breakdown tables want a registry even when -metrics is off.
	sess, err := telemetry.Start("experiments", telemetry.Flags{
		Metrics: *metrics, Trace: *traceOut, Pprof: *pprofArg, Manifest: *manifest,
		Listen: *listen, Flight: *flight, FlightRules: *flightRls, Hold: *hold,
		AlwaysRegistry: true,
	})
	if err != nil {
		return err
	}
	wallSeconds := map[string]float64{}
	defer func() {
		err = sess.Finish(err, map[string]string{
			"fig":   *fig,
			"quick": fmt.Sprint(*quick),
			"trace": *traceOut,
		}, wallSeconds)
		if err == nil && *manifest != "" && *manifest != "-" {
			fmt.Printf("wrote %s\n", *manifest)
		}
	}()
	reg, mon := sess.Registry(), sess.Monitor()
	bound, err := sess.Serve(telemetry.Endpoints(mon.Collector())...)
	if err != nil {
		return err
	}
	if bound != "" {
		fmt.Printf("serving /metrics, /healthz, /readyz, and /debug/telemetry on %s\n", bound)
	}
	experiments.SetObs(reg, sess.Tracer())

	runs := map[string]func() (*experiments.Result, error){
		"3": func() (*experiments.Result, error) {
			cfg := experiments.DefaultFigure3Config()
			if *quick {
				// Shared with the CI regress gate and the manifest
				// determinism tests, so all three run the same workload.
				cfg = experiments.QuickFigure3Config()
			}
			return experiments.Figure3(cfg)
		},
		"4": func() (*experiments.Result, error) {
			cfg := experiments.DefaultFigure4Config()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, cfg.Trials = 24, 5, 8, 4, 1
				cfg.StdDevs = []float64{0.25, 2, 6, 12}
			}
			return experiments.Figure4(cfg)
		},
		"5": func() (*experiments.Result, error) {
			cfg := experiments.DefaultZonesConfig()
			if *quick {
				cfg.Zones, cfg.K, cfg.Background, cfg.Samples, cfg.Eval, cfg.Trials = 3, 5, 10, 8, 5, 1
				cfg.BudgetFracs = []float64{0.15, 0.3, 0.5}
			}
			return experiments.Figure5(cfg)
		},
		"7": func() (*experiments.Result, error) {
			cfg := experiments.DefaultZonesConfig()
			if *quick {
				cfg.K, cfg.Background, cfg.Samples, cfg.Eval, cfg.Trials = 4, 8, 6, 4, 1
			}
			return experiments.Figure7(cfg)
		},
		"8": func() (*experiments.Result, error) {
			cfg := experiments.DefaultFigure8Config()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, cfg.Trials = 18, 4, 5, 4, 1
				cfg.BudgetMults = []float64{1.05, 1.3, 1.6}
			}
			return experiments.Figure8(cfg)
		},
		"9": func() (*experiments.Result, error) {
			cfg := experiments.DefaultFigure9Config()
			if *quick {
				cfg.Trials = 1
				cfg.Lab.Epochs = 60
				cfg.SampleEpochs, cfg.SampleWindow, cfg.Eval = 20, 10, 10
				cfg.BudgetFracs = []float64{0.1, 0.3, 0.5}
			}
			return experiments.Figure9(cfg)
		},
		"samplesize": func() (*experiments.Result, error) {
			cfg := experiments.DefaultSampleSizeConfig()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Eval, cfg.Trials = 24, 5, 4, 1
				cfg.SampleCounts = []int{1, 5, 15, 30}
			}
			return experiments.SampleSizeStudy(cfg)
		},
		"installcost": func() (*experiments.Result, error) {
			cfg := experiments.DefaultInstallCostConfig()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Samples, cfg.Trials = 24, 5, 8, 1
			}
			return experiments.InstallCostStudy(cfg)
		},
		"spatial": func() (*experiments.Result, error) {
			cfg := experiments.DefaultSpatialStudyConfig()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, cfg.Trials = 24, 5, 8, 4, 1
				cfg.LengthScales = []float64{0, 20}
			}
			return experiments.SpatialStudy(cfg)
		},
		"naivetradeoff": func() (*experiments.Result, error) {
			cfg := experiments.DefaultNaiveTradeoffConfig()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Eval, cfg.Trials = 25, 5, 3, 1
				cfg.Batches = []int{1, 2, 5}
			}
			return experiments.NaiveTradeoffStudy(cfg)
		},
		"lossymedium": func() (*experiments.Result, error) {
			cfg := experiments.DefaultLossyMediumConfig()
			if *quick {
				cfg.Nodes, cfg.K, cfg.Samples, cfg.Eval, cfg.Trials = 20, 4, 6, 3, 1
				cfg.LossProbs = []float64{0, 0.3}
			}
			return experiments.LossyMediumStudy(cfg)
		},
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for i, id := range selected {
		start := time.Now()
		before := reg.Snapshot()
		// One span per figure on an index clock, so tracetool groups and
		// attributes the work per experiment.
		var fspan *obs.Span
		if tr := sess.Tracer(); tr != nil {
			fspan = tr.StartSpan(nil, "experiment", float64(i), obs.F("fig", id))
			experiments.SetSpan(fspan)
		}
		res, err := runs[id]()
		if fspan != nil {
			experiments.SetSpan(nil)
			fspan.End(float64(i + 1))
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Println(res.Render())
		if *plot {
			fmt.Println(res.Plot(72, 20))
		}
		fmt.Println(experiments.Breakdown(before, reg.Snapshot()))
		wallSeconds[res.ID] = time.Since(start).Seconds()
		fmt.Printf("(%s took %.1fs)\n\n", res.ID, wallSeconds[res.ID])
		// One telemetry tick per finished figure: windowed deltas read
		// as per-figure costs, and the flight rules get judged between
		// figures rather than mid-sweep.
		if err := mon.Sample(float64(i)); err != nil {
			return err
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}
