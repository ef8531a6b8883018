package telemetry

import (
	"io"
	"testing"

	"prospector/internal/obs"
)

// tickFixture builds a collector with one of each metric kind, synced
// and warmed so that steady-state Tick exercises every probe branch.
func tickFixture() (*Collector, *obs.Counter, *obs.Gauge, *obs.Histogram) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []float64{1, 2, 4})
	c := NewCollector(reg, 32)
	ctr.Inc()
	g.Set(1)
	h.Observe(1.5)
	c.Sample(0)
	return c, ctr, g, h
}

// TestTelemetryTickAllocFree pins the zero-allocation contract on the
// hot sampling path: once Sync has built the probes, Tick allocates
// nothing regardless of metric mix.
func TestTelemetryTickAllocFree(t *testing.T) {
	c, ctr, g, h := tickFixture()
	now := 1.0
	allocs := testing.AllocsPerRun(100, func() {
		ctr.Add(3)
		g.Set(now)
		h.Observe(now)
		c.Tick(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("Collector.Tick allocated %.1f per run, want 0", allocs)
	}
}

// TestFlightAppendAllocFree pins the zero-allocation contract on the
// flight recorder: after each slot has grown to the record high-water
// mark, appends (including evicting ones) allocate nothing.
func TestFlightAppendAllocFree(t *testing.T) {
	f := NewFlight(8)
	rec := []byte(`{"seq":1,"kind":"span","name":"epoch","dur_ms":3.25}` + "\n")
	for i := 0; i < 16; i++ { // fill and wrap: every slot at high-water
		f.Append(rec)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.Append(rec)
	})
	if allocs != 0 {
		t.Fatalf("Flight.Append allocated %.1f per run, want 0", allocs)
	}
}

// TestFlightTeeAllocFree pins the zero-allocation contract of
// Flight.Write on the path that calls it: a tracer teed into the
// flight recorder (Tracer.Tee) emits each record through Write, and once
// the slots and the tracer's scratch have grown, emitting allocates
// nothing.
func TestFlightTeeAllocFree(t *testing.T) {
	f := NewFlight(8)
	tr := obs.NewBufferedTracer(io.Discard)
	tr.Tee(f)
	at := 0.0
	for i := 0; i < 16; i++ { // fill and wrap: every slot at high-water
		tr.Event("tick", at)
		at++
	}
	before, _ := f.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		tr.Event("tick", at)
		at++
	})
	if allocs != 0 {
		t.Fatalf("teed Tracer.Event allocated %.1f per run, want 0", allocs)
	}
	if after, _ := f.Stats(); after == before {
		t.Fatal("the teed tracer wrote nothing to the flight recorder")
	}
}

// TestLatestAllocFree pins the zero-allocation contract of Ring.Last on
// the path that reads it: Collector.Latest, which the Monitor calls
// for every rule it judges.
func TestLatestAllocFree(t *testing.T) {
	c, ctr, _, _ := tickFixture()
	ctr.Add(2)
	c.Tick(1)
	var got float64
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = c.Latest("c.delta")
	})
	if allocs != 0 {
		t.Fatalf("Collector.Latest allocated %.1f per run, want 0", allocs)
	}
	if got != 2 {
		t.Fatalf("Latest(c.delta) = %v, want 2", got)
	}
}

func BenchmarkTelemetryTick(b *testing.B) {
	c, ctr, g, h := tickFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		g.Set(float64(i))
		h.Observe(float64(i % 5))
		c.Tick(float64(i))
	}
}

func BenchmarkFlightAppend(b *testing.B) {
	f := NewFlight(256)
	rec := []byte(`{"seq":1,"kind":"span","name":"epoch","dur_ms":3.25}` + "\n")
	for i := 0; i < 512; i++ {
		f.Append(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Append(rec)
	}
}
