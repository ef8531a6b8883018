package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prospector/internal/obs"
	"prospector/internal/regress"
	"prospector/internal/traceanalysis"
)

func TestRingEvictsOldest(t *testing.T) {
	r := newRing(3)
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring reported a last value")
	}
	for i := 1; i <= 5; i++ {
		r.Push(float64(i))
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d, want 3/3", r.Len(), r.Cap())
	}
	got := r.AppendTo(nil)
	want := []float64{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window = %v, want %v", got, want)
		}
	}
	if last, _ := r.Last(); last != 5 {
		t.Fatalf("Last = %g, want 5", last)
	}
}

func TestCollectorCounterSeries(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("requests")
	c := NewCollector(reg, 8)

	ctr.Add(10)
	c.Sample(0) // first tick: dt undefined, rate 0
	ctr.Add(30)
	c.Sample(2) // dt=2, delta=30, rate=15

	if v, ok := c.Latest("requests"); !ok || v != 40 {
		t.Fatalf("requests = %g,%v, want 40,true", v, ok)
	}
	if v, ok := c.Latest("requests.delta"); !ok || v != 30 {
		t.Fatalf("requests.delta = %g,%v, want 30,true", v, ok)
	}
	if v, ok := c.Latest("requests.rate"); !ok || v != 15 {
		t.Fatalf("requests.rate = %g,%v, want 15,true", v, ok)
	}
	if c.Ticks() != 2 {
		t.Fatalf("Ticks = %d, want 2", c.Ticks())
	}
}

func TestCollectorGaugeNaNSanitized(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("ratio")
	c := NewCollector(reg, 4)
	g.Set(math.NaN())
	c.Sample(0)
	v, ok := c.Latest("ratio")
	if !ok || v != 0 {
		t.Fatalf("NaN gauge sampled as %g,%v, want 0,true", v, ok)
	}
	// The export must stay marshalable: NaN would break json.Marshal.
	if _, err := json.Marshal(c.Export()); err != nil {
		t.Fatalf("export not marshalable: %v", err)
	}
}

func TestCollectorHistogramWindowedQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	c := NewCollector(reg, 8)

	h.Observe(0.5)
	h.Observe(0.5)
	c.Sample(0)
	if v, ok := c.Latest("lat.delta"); !ok || v != 2 {
		t.Fatalf("lat.delta tick1 = %g,%v, want 2,true", v, ok)
	}

	// Second window holds only the new observations: all in (2,4].
	h.Observe(3)
	h.Observe(3)
	h.Observe(3)
	c.Sample(1)
	if v, _ := c.Latest("lat.delta"); v != 3 {
		t.Fatalf("lat.delta tick2 = %g, want 3", v)
	}
	p99, _ := c.Latest("lat.p99")
	if p99 <= 2 || p99 > 4 {
		t.Fatalf("lat.p99 = %g, want in (2,4] — windowed, not cumulative", p99)
	}
	p50, _ := c.Latest("lat.p50")
	if p50 <= 2 || p50 > 4 {
		t.Fatalf("lat.p50 = %g, want in (2,4]", p50)
	}
}

func TestCollectorDiscoversLateSeries(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(reg, 4)
	c.Sample(0)
	if _, ok := c.Latest("late"); ok {
		t.Fatal("series existed before registration")
	}
	reg.Counter("late").Add(7)
	c.Sample(1)
	if v, ok := c.Latest("late"); !ok || v != 7 {
		t.Fatalf("late = %g,%v, want 7,true", v, ok)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Sync()
	c.Tick(0)
	c.Sample(1)
	if _, ok := c.Latest("x"); ok {
		t.Fatal("nil collector returned a value")
	}
	if c.Ticks() != 0 || c.Window() != 0 {
		t.Fatal("nil collector reported nonzero state")
	}
	if e := c.Export(); e == nil || len(e.Series) != 0 {
		t.Fatal("nil collector export not empty")
	}
}

func TestFlightRingAndDump(t *testing.T) {
	f := NewFlight(3)
	for _, s := range []string{"a\n", "b\n", "c\n", "d\n"} {
		f.Append([]byte(s))
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	total, dropped := f.Stats()
	if total != 4 || dropped != 1 {
		t.Fatalf("Stats = %d,%d, want 4,1", total, dropped)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d,%v", n, err)
	}
	if buf.String() != "b\nc\nd\n" {
		t.Fatalf("dump = %q, want records oldest-first", buf.String())
	}
}

func TestFlightWriterCopiesBytes(t *testing.T) {
	f := NewFlight(2)
	rec := []byte("hello\n")
	if n, err := f.Write(rec); n != len(rec) || err != nil {
		t.Fatalf("Write = %d,%v", n, err)
	}
	copy(rec, "XXXXX") // caller reuses its buffer; the ring must not see it
	var buf bytes.Buffer
	_, _ = f.WriteTo(&buf)
	if buf.String() != "hello\n" {
		t.Fatalf("ring aliased caller bytes: %q", buf.String())
	}
}

func TestMonitorDumpsOnBreachOnce(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("errs")
	c := NewCollector(reg, 8)
	f := NewFlight(8)
	f.Append([]byte(`{"seq":1}` + "\n"))
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	m := NewMonitor(c, f, []regress.Rule{
		{Series: "errs.delta", Kind: "abs<=", Value: 0, Tolerance: 0, Note: "no errors allowed"},
	}, path)

	if err := m.Sample(0); err != nil {
		t.Fatal(err)
	}
	if m.Dumped() {
		t.Fatal("dumped with no breach")
	}
	ctr.Add(5)
	if err := m.Sample(1); err != nil {
		t.Fatal(err)
	}
	if !m.Dumped() {
		t.Fatal("breach did not dump")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want header + 1 record:\n%s", len(lines), b)
	}
	var hdr traceanalysis.FlightHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr.Flight != FlightSchema || hdr.Series != "errs.delta" || hdr.Got != 5 ||
		hdr.Tick != 1 || hdr.Records != 1 || hdr.Note != "no errors allowed" {
		t.Fatalf("header = %+v", hdr)
	}
	if lines[1] != `{"seq":1}` {
		t.Fatalf("record line = %q", lines[1])
	}

	// The latch: remove the dump, breach again, nothing is rewritten.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	ctr.Add(5)
	if err := m.Sample(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("second breach rewrote the dump")
	}
}

func TestMonitorSkipsMissingSeries(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(reg, 4)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	m := NewMonitor(c, NewFlight(4), []regress.Rule{
		{Series: "not.yet.there", Kind: "exact", Value: 1},
	}, path)
	if err := m.Sample(0); err != nil {
		t.Fatal(err)
	}
	if m.Dumped() {
		t.Fatal("missing series treated as breach")
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	if err := m.Sample(0); err != nil {
		t.Fatal(err)
	}
	if m.Dumped() || m.Collector() != nil || m.Flight() != nil {
		t.Fatal("nil monitor reported state")
	}
}

func TestLoadRules(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`[{"series":"a.rate","kind":"abs<=","value":1,"tolerance":0.5}]`), 0o644)
	rules, err := LoadRules(good)
	if err != nil || len(rules) != 1 {
		t.Fatalf("LoadRules = %v, %v", rules, err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`[{"series":"a","kind":"nonsense"}]`), 0o644)
	if _, err := LoadRules(bad); err == nil {
		t.Fatal("invalid rule kind accepted")
	}
	if _, err := LoadRules(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestHTTPSurfaces(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("hits").Add(3)
	c := NewCollector(reg, 4)

	// Readiness flips on the first tick.
	rec := httptest.NewRecorder()
	ReadyHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz before tick = %d, want 503", rec.Code)
	}
	c.Sample(0)
	rec = httptest.NewRecorder()
	ReadyHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz after tick = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/telemetry", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/telemetry = %d", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var e Export
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if got := e.Series["hits"]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("hits series = %v, want [3]", got)
	}

	eps := Endpoints(c)
	if len(eps) != 3 {
		t.Fatalf("Endpoints = %d, want 3", len(eps))
	}
	paths := map[string]bool{}
	for _, ep := range eps {
		paths[ep.Path] = ep.Handler != nil
	}
	for _, p := range []string{"/healthz", "/readyz", "/debug/telemetry"} {
		if !paths[p] {
			t.Fatalf("endpoint %s missing or nil handler", p)
		}
	}
}

func TestRuntimeBridge(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewRuntimeBridge(reg)
	b.Sample()
	if g := reg.Gauge("go.goroutines").Value(); g < 1 {
		t.Fatalf("go.goroutines = %g, want >= 1", g)
	}
	if h := reg.Gauge("go.heap_bytes").Value(); h <= 0 {
		t.Fatalf("go.heap_bytes = %g, want > 0", h)
	}
	// Distribution gauges exist and carry finite values.
	for _, name := range []string{
		"go.gc_pause_p50_seconds", "go.gc_pause_p99_seconds",
		"go.sched_latency_p50_seconds", "go.sched_latency_p99_seconds",
	} {
		v := reg.Gauge(name).Value()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %g, want finite", name, v)
		}
	}
	var nb *RuntimeBridge
	nb.Sample() // nil-safe
}

func TestStartTickerStops(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(reg, 16)
	m := NewMonitor(c, nil, nil, "")
	stop := StartTicker(m, NewRuntimeBridge(reg), time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for c.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	if c.Ticks() == 0 {
		t.Fatal("ticker never sampled")
	}
	after := c.Ticks()
	time.Sleep(10 * time.Millisecond)
	if c.Ticks() != after {
		t.Fatal("ticker kept sampling after stop")
	}
}
