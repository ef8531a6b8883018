// Package ledger makes every experiment run a self-describing,
// machine-checkable artifact: a run manifest is one deterministic JSON
// document capturing what was run (command + flags), on what (go
// version, OS/arch, git revision), what came out (the final metrics
// snapshot, including the derived quantile gauges and
// lp.warm_hit_rate), and what the trace shows (per-phase totals,
// per-node energy attribution, critical-path aggregates).
//
// Everything nondeterministic — host facts, wall-clock timings, and
// the wall-time metric series fed from injected clocks — is quarantined
// in the Environment block, so two runs of the same seed produce
// byte-identical manifests outside it (DeterministicBytes pins this,
// and internal/ledger's tests enforce it). internal/regress compares
// manifests against committed baselines; cmd/regress is the CLI.
package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"prospector/internal/obs"
)

// Schema identifies the manifest document format. Bump the version on
// any change that would make old baselines or readers misinterpret a
// field.
const Schema = "prospector/run-manifest/v1"

// Manifest is one run's self-description. Field order is the document
// order; map keys serialize sorted (encoding/json), so marshaling is
// deterministic given deterministic values.
type Manifest struct {
	Schema string `json:"schema"`
	Run    Run    `json:"run"`
	// Metrics is the end-of-run registry snapshot with the wall-clock
	// series relocated to Environment.WallClockMetrics.
	Metrics *obs.Snapshot `json:"metrics"`
	// Trace aggregates are present when the run also streamed a trace.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Environment is the one nondeterministic block: host facts and
	// wall-clock measurements. Comparisons that demand reproducibility
	// (DeterministicBytes, regress rules) never look inside it.
	Environment Environment `json:"environment"`
}

// Run records what was executed: the command and its effective
// configuration as flag-name -> rendered-value pairs.
type Run struct {
	Command string            `json:"command"`
	Args    map[string]string `json:"args,omitempty"`
}

// Environment is the nondeterministic block of a manifest.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GitRev    string `json:"git_rev,omitempty"`
	// StartUnix is the run's start in Unix seconds, supplied by the
	// caller (the deterministic core never reads clocks).
	StartUnix int64 `json:"start_unix,omitempty"`
	// WallSeconds holds per-phase wall-time self-instrumentation, e.g.
	// one entry per figure for cmd/experiments.
	WallSeconds map[string]float64 `json:"wall_seconds,omitempty"`
	// WallClockMetrics receives the metric series fed from injected
	// wall clocks (lp.solve_seconds and its derived quantiles), which
	// would otherwise break manifest determinism.
	WallClockMetrics *obs.Snapshot `json:"wall_clock_metrics,omitempty"`
}

// wallClockSeries names the histogram families whose observations are
// wall-clock readings. The family's histogram and its derived quantile
// gauges are relocated into the environment.
var wallClockSeries = []string{"lp.solve_seconds", "exec.epoch_ms"}

// wallClockPrefixes names whole metric families that are inherently
// nondeterministic: every series under a listed prefix is relocated.
// go.* is the telemetry runtime bridge (heap, GC, goroutines, sched
// latency) — runtime state can never appear in the deterministic block.
var wallClockPrefixes = []string{"go."}

func hasWallClockPrefix(key string) bool {
	for _, p := range wallClockPrefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// New assembles a manifest from a run's identity, its final registry
// snapshot, and the environment block. The snapshot is copied; wall-
// clock series are moved into env.WallClockMetrics rather than
// dropped, so the signal stays available without poisoning
// determinism. snap may be nil (a run without metrics still gets a
// well-formed manifest).
func New(command string, args map[string]string, snap *obs.Snapshot, env Environment) *Manifest {
	m := &Manifest{Schema: Schema, Run: Run{Command: command, Args: args}, Environment: env}
	metrics, wall := splitWallClock(snap)
	m.Metrics = metrics
	if wall != nil {
		m.Environment.WallClockMetrics = wall
	}
	return m
}

// splitWallClock copies snap, moving wall-clock series into a second
// snapshot (nil when none were present).
func splitWallClock(snap *obs.Snapshot) (metrics, wall *obs.Snapshot) {
	metrics = emptySnapshot()
	if snap == nil {
		return metrics, nil
	}
	toWall := func() *obs.Snapshot {
		if wall == nil {
			wall = emptySnapshot()
		}
		return wall
	}
	for k, v := range snap.Counters {
		metrics.Counters[k] = v
	}
	gauges := make([]string, 0, len(snap.Gauges))
	for k := range snap.Gauges {
		gauges = append(gauges, k)
	}
	sort.Strings(gauges)
	for _, k := range gauges {
		if isWallClockGauge(k) {
			toWall().Gauges[k] = snap.Gauges[k]
		} else {
			metrics.Gauges[k] = snap.Gauges[k]
		}
	}
	hists := make([]string, 0, len(snap.Histograms))
	for k := range snap.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(hists)
	for _, k := range hists {
		if isWallClockHistogram(k) {
			toWall().Histograms[k] = snap.Histograms[k]
		} else {
			metrics.Histograms[k] = snap.Histograms[k]
		}
	}
	return metrics, wall
}

func emptySnapshot() *obs.Snapshot {
	return &obs.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
}

// isWallClockHistogram matches a histogram series key against the
// wall-clock families.
func isWallClockHistogram(key string) bool {
	if hasWallClockPrefix(key) {
		return true
	}
	for _, name := range wallClockSeries {
		if key == name {
			return true
		}
	}
	return false
}

// isWallClockGauge matches the derived quantile gauges of a wall-clock
// family (<family>.p50 and friends).
func isWallClockGauge(key string) bool {
	if hasWallClockPrefix(key) {
		return true
	}
	for _, name := range wallClockSeries {
		if strings.HasPrefix(key, name+".p") {
			return true
		}
	}
	return false
}

// HostEnvironment gathers the reproducibility-relevant host facts. The
// git revision comes from the binary's embedded build info and is empty
// when the build carried no VCS stamp (e.g. test binaries). startUnix
// is caller-supplied wall time; pass 0 to omit.
func HostEnvironment(startUnix int64) Environment {
	env := Environment{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		StartUnix: startUnix,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitRev = s.Value
			}
		}
	}
	return env
}

// Write emits the manifest as one indented JSON document with a
// trailing newline.
func (m *Manifest) Write(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: marshal manifest: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the manifest to path (or stdout for "-").
func WriteFile(path string, m *Manifest) error {
	if path == "-" {
		return m.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ledger: manifest file: %w", err)
	}
	err = m.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile loads and validates a manifest document.
func ReadFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("ledger: %s: schema %q, want %q", path, m.Schema, Schema)
	}
	return &m, nil
}

// DeterministicBytes marshals the manifest with the Environment block
// zeroed: the bytes two same-seed runs must agree on.
func (m *Manifest) DeterministicBytes() ([]byte, error) {
	c := *m
	c.Environment = Environment{}
	return json.MarshalIndent(&c, "", "  ")
}
