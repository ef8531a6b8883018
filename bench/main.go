// Command bench is Prospector's benchmark. It runs seeded closed-loop
// workloads against the planner, the collection layers and the plan
// service, checks every output, prints each metric as
// "workload metric value unit", and ends with one JSON object holding
// the metrics on its last line. It exits non-zero when any op fails
// or any check does.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-smoke] [-cpuprofile FILE] [-tracedir DIR]
//	bash bench/run.sh -record FILE [-seconds S]
//
// The end-to-end run (-trace 0) hands the program no registry and no
// tracer. The traced run (-trace 1) adds a registry for the program's
// own counters and bench-side spans around every layer call, writes
// them to DIR/trace-<workload>.jsonl, and reports per-layer metrics.
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"

	"prospector/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags of one invocation.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run's outcome.
type result struct {
	w                 *spec
	attempted, failed int
	firstErr          error
	metrics           []metric
	notes             map[string]string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "all", "workload to run: window_replan, standing_sim, serve_light, serve_heavy, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each workload measures")
	traceFlag := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics; 0: the end-to-end run")
	fs.BoolVar(&o.smoke, "smoke", false, "run every selected workload for about 1 s, with one set-up and all checks on")
	fs.StringVar(&o.traceDir, "tracedir", filepath.Join("bench", "results"), "where the traced run writes trace-<workload>.jsonl")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	record := fs.String("record", "", "run each workload 5 times end to end plus once traced, and write the summary here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0 and no arguments")
		return 2
	}
	o.trace = *traceFlag == 1
	sel := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		sel = []*spec{w}
	}
	if *record != "" {
		return writeRecord(*record, sel, o, stdout, stderr)
	}
	if o.smoke {
		// With its one set-up and reference plans, a workload then
		// takes about a second.
		o.seconds = 0.5
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Fprintf(stdout, "# host %s\n", fingerprint())
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range sel {
		res, err := runWorkload(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout)
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "bench: %s: %d failed ops, first: %v\n", w.name, res.failed, res.firstErr)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		for _, m := range res.metrics {
			key := m.name
			if len(sel) > 1 {
				key = w.name + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// jsonResult is the last line of the output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setups is how many times each run sets its workload up; setup_s is
// the median. Smoke runs set up once.
const setups = 5

// runWorkload sets w up, measures it, and derives its metrics: the
// end-to-end ones, or the per-layer ones in the traced run.
func runWorkload(w *spec, o options, log io.Writer) (*result, error) {
	var t *tracing
	if o.trace {
		t = newTracing()
	}
	n := setups
	if o.smoke {
		n = 1
	}
	var sc scenario
	setupS := make([]float64, 0, n)
	heapMB := 0.0 // heap_peak_mb: the most the program keeps after set-up or after the loop
	for r := 0; r < n; r++ {
		if sc != nil {
			sc.close()
		}
		start := time.Now()
		s, err := w.setup(o.seed, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		sc = s
		if r == 0 {
			heapMB = keptHeapMB()
		}
	}
	defer sc.close()
	if err := sc.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}

	minOps := w.quality
	if o.smoke {
		minOps = 1
	}
	from := t.registry().Snapshot()
	var atQuality *obs.Snapshot
	alloc0, gc0 := runtimeCounters()
	logs, elapsed := closedLoop(w.clients, time.Duration(o.seconds*float64(time.Second)), minOps, w.quality,
		sc.op, func() { atQuality = t.registry().Snapshot() })
	alloc1, gc1 := runtimeCounters()
	heapMB = max(heapMB, keptHeapMB())
	to := t.registry().Snapshot()
	if atQuality == nil {
		atQuality = to
	}

	res := &result{w: w, notes: map[string]string{}}
	var lat latencyHist
	energy, acc, qOps := 0.0, 0.0, 0
	for _, lg := range logs {
		lat.merge(&lg.lat)
		res.attempted += lg.ops
		res.failed += lg.failed
		if res.firstErr == nil {
			res.firstErr = lg.err
		}
		energy += lg.energy
		acc += lg.acc
		qOps += lg.qualityOps
	}
	thr := sustainedThroughput(logs, elapsed.Seconds())
	qualityNote := fmt.Sprintf("first %d ops per client", qOps/w.clients)
	if tq, ok := sc.(targetQuality); ok {
		energy, acc = tq.quality()
		qualityNote = "mean over the workload's planner and budget targets"
	} else {
		energy, acc = energy/float64(qOps), acc/float64(qOps)
	}
	if !o.trace {
		p95 := lat.quantile(0.95)
		res.metrics = []metric{
			{"setup_s", quantile(setupS, 0.5), "s"},
			{"throughput_ops_s", thr, "ops/s"},
			{"latency_p50_ms", lat.quantile(0.5), "ms"},
			{"latency_p95_ms", p95, "ms"},
			{"energy_mj_per_epoch", energy, "mJ"},
			{"accuracy", acc, "ratio"},
			{"heap_peak_mb", heapMB, "MB"},
		}
		res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", n)
		res.notes["throughput_ops_s"] = fmt.Sprintf("median of %d windows; mean %.4g over %.1f s",
			throughputWindows, float64(res.attempted)/elapsed.Seconds(), elapsed.Seconds())
		res.notes["latency_p50_ms"] = fmt.Sprintf("n=%d", lat.n)
		res.notes["latency_p95_ms"] = fmt.Sprintf("n=%d, %d beyond", lat.n, lat.above(p95))
		res.notes["energy_mj_per_epoch"] = qualityNote
		res.notes["accuracy"] = qualityNote
	} else {
		tr, path, err := t.finish(o.traceDir, w.name)
		if err != nil {
			return nil, err
		}
		a := attribute(tr)
		fmt.Fprintf(log, "# trace %s: %d records, %d spans, %d of %d ops traced\n",
			path, len(tr.Records), tr.SpanCount(), a.ops, res.attempted)
		res.metrics = layerMetrics(layerInputs{
			a: a, loop: regDelta{from, to}, quality: regDelta{from, atQuality},
			ops: float64(res.attempted), allocBytes: float64(alloc1 - alloc0), gcCycles: float64(gc1 - gc0),
			throughput: thr,
		})
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	return res, nil
}

func (r *result) print(w io.Writer) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%s %s %s %s", r.w.name, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
		if note := r.notes[m.name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s error_ratio %s ratio  (%d of %d ops failed)\n", r.w.name,
		strconv.FormatFloat(ratio(float64(r.failed), float64(r.attempted)), 'g', 6, 64), r.failed, r.attempted)
}
