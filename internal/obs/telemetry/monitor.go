package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"prospector/internal/regress"
	"prospector/internal/traceanalysis"
)

// FlightSchema identifies the flight-dump header line. Bump on any
// change that would make `tracetool flight` misread a dump.
const FlightSchema = traceanalysis.FlightSchemaPrefix + "v1"

// LoadRules reads a JSON array of regress rules (the same grammar the
// CI baseline gate uses) from path and validates it. Live rules judge
// the collector's windowed series — counter deltas/rates, gauges, and
// windowed histogram quantiles like exec.epoch_ms.p99 — instead of
// manifest series.
func LoadRules(path string) ([]regress.Rule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rules []regress.Rule
	if err := json.Unmarshal(b, &rules); err != nil {
		return nil, fmt.Errorf("telemetry: parse rules %s: %w", path, err)
	}
	// Reuse the baseline validator: same kinds, same structural checks.
	base := regress.Baseline{Name: "flight", Rules: rules}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("telemetry: rules %s: %w", path, err)
	}
	return rules, nil
}

// Monitor drives the live-telemetry loop: sample the collector, judge
// the rules against the freshly windowed series, and on the first
// breach dump the flight ring to the configured path. The dump fires
// once per run (latched), so a persistently bad series produces one
// coherent artifact instead of rewriting it every tick. Safe for
// concurrent use: the interval ticker samples from its own goroutine.
type Monitor struct {
	mu        sync.Mutex
	collector *Collector
	flight    *Flight
	rules     []regress.Rule
	dumpPath  string
	dumped    bool
}

// NewMonitor bundles a collector with an optional flight recorder,
// breach rules, and the dump destination. flight, rules, and dumpPath
// may be zero when only live series are wanted.
func NewMonitor(c *Collector, f *Flight, rules []regress.Rule, dumpPath string) *Monitor {
	return &Monitor{collector: c, flight: f, rules: rules, dumpPath: dumpPath}
}

// Collector returns the monitor's collector (nil on a nil monitor).
func (m *Monitor) Collector() *Collector {
	if m == nil {
		return nil
	}
	return m.collector
}

// Flight returns the monitor's flight recorder (nil on a nil monitor).
func (m *Monitor) Flight() *Flight {
	if m == nil {
		return nil
	}
	return m.flight
}

// Dumped reports whether the flight recorder has fired.
func (m *Monitor) Dumped() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dumped
}

// Sample ticks the collector at now and evaluates the breach rules.
// A rule whose series does not exist yet is skipped — early in a run
// most series have no samples, and judging absence would trip every
// rule on the first tick (unlike the CI gate, where a missing series
// is a violation). No-op on a nil monitor, so disabled telemetry costs
// callers one nil check.
func (m *Monitor) Sample(now float64) error {
	if m == nil {
		return nil
	}
	m.collector.Sample(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dumped || m.flight == nil || m.dumpPath == "" || len(m.rules) == 0 {
		return nil
	}
	for _, rule := range m.rules {
		got, ok := m.collector.Latest(rule.Series)
		if !ok {
			continue
		}
		v, bad := regress.Judge(rule, got)
		if !bad {
			continue
		}
		// Latch before writing: a failing dump should not retry (and
		// re-fail) on every subsequent tick.
		m.dumped = true
		hdr := traceanalysis.FlightHeader{
			Flight: FlightSchema,
			Series: rule.Series, Kind: rule.Kind, Got: got, Want: v.Want,
			Tick: m.collector.Ticks() - 1, Now: now,
			Records: m.flight.Len(), Note: rule.Note,
		}
		_, hdr.Dropped = m.flight.Stats()
		if err := writeDump(m.dumpPath, hdr, m.flight); err != nil {
			return fmt.Errorf("telemetry: flight dump: %w", err)
		}
		return nil
	}
	return nil
}

// writeDump emits the header line followed by the flight ring.
func writeDump(path string, hdr traceanalysis.FlightHeader, f *Flight) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteDump(out, hdr, f)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteDump writes one flight dump document: the header as a single
// JSON line, then the retained trace records oldest-first.
func WriteDump(w io.Writer, hdr traceanalysis.FlightHeader, f *Flight) error {
	b, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = f.WriteTo(w)
	return err
}
