package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// host is the fingerprint of the machine and build a record comes from.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func hostFingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+modified"
		}
	}
	return h
}

func fingerprint() string {
	h := hostFingerprint()
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s commit=%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OS, h.Commit)
}

// summary is one metric's values over a record's runs, with the
// quartiles Python's statistics.quantiles(values, n=4) gives and the
// spread (q3-q1)/median.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, Values: values}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1, s.Q3 = quartiles(sorted)
	s.Spread = ratio(s.Q3-s.Q1, s.Median)
	return s
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method; sorted holds at least two values.
func quartiles(sorted []float64) (q1, q3 float64) {
	const n = 4
	m := len(sorted) + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(sorted)-1))
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	if len(sorted) < 2 {
		return sorted[0], sorted[0]
	}
	return cut(1), cut(3)
}

// recordWorkload is one workload's part of a record.
type recordWorkload struct {
	Seeds     []int64            `json:"seeds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Traced    struct {
		Seed    int64                 `json:"seed"`
		Metrics map[string]jsonMetric `json:"metrics"`
	} `json:"traced"`
	// TraceOverhead is 1 - traced throughput / median end-to-end
	// throughput: the share of throughput the traced run gives up.
	TraceOverhead float64 `json:"trace_overhead"`
}

// recordRuns is how many end-to-end runs per workload a record holds.
const recordRuns = 5

// writeRecord runs each workload recordRuns times end to end, at seeds
// 1..recordRuns, then once traced at seed 1, each run a fresh process
// of this binary, and writes every value with its medians, quartiles
// and the host fingerprint to path.
func writeRecord(path string, sel []*spec, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec := struct {
		Host      host                       `json:"host"`
		Seconds   float64                    `json:"seconds"`
		Workloads map[string]*recordWorkload `json:"workloads"`
	}{Host: hostFingerprint(), Seconds: o.seconds, Workloads: map[string]*recordWorkload{}}
	status := 0
	for _, w := range sel {
		rw := &recordWorkload{EndToEnd: map[string]summary{}}
		values, units := map[string][]float64{}, map[string]string{}
		for s := int64(1); s <= recordRuns+1; s++ {
			traced := s > recordRuns
			seed := s
			if traced {
				seed = 1
			}
			out, err := runChild(self, w.name, seed, traced, o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				status = 1
				continue
			}
			fmt.Fprintf(stdout, "%s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
				w.name, seed, traced, out.Correct, out.Attempted, out.Failed)
			if !out.Correct {
				status = 1
			}
			if traced {
				rw.Traced.Seed, rw.Traced.Metrics = seed, out.Metrics
				continue
			}
			rw.Seeds = append(rw.Seeds, seed)
			rw.Attempted += out.Attempted
			rw.Failed += out.Failed
			for name, m := range out.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, vs := range values {
			rw.EndToEnd[name] = summarize(units[name], vs)
		}
		if thr, ok := rw.Traced.Metrics["trace.throughput_ops_s"]; ok {
			rw.TraceOverhead = 1 - ratio(thr.Value, rw.EndToEnd["throughput_ops_s"].Median)
		}
		rec.Workloads[w.name] = rw
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

// runChild runs one workload in a fresh process and parses the JSON
// object on its last output line.
func runChild(self, workload string, seed int64, traced bool, o options, stderr io.Writer) (jsonResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", tr, "-tracedir", o.traceDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
