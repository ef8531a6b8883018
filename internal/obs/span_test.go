package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestSpanGolden pins the byte-exact record shapes of the span API:
// deterministic IDs (the begin record's seq), parent links, flat child
// spans, parented events, and end records closing by ID.
func TestSpanGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartSpan(nil, "query", 0, F("planner", "lp+lf"))
	if root.ID() != 1 {
		t.Fatalf("root ID = %d, want 1", root.ID())
	}
	epoch := root.Child("sim.epoch", 0, F("nodes", 3))
	if epoch.ID() != 2 || epoch.Name() != "sim.epoch" {
		t.Fatalf("child span = %d %q", epoch.ID(), epoch.Name())
	}
	epoch.Event("sim.trigger", 0.5, F("node", 1))
	epoch.Span("sim.xfer", 0.5, 0.75, F("node", 2), F("dst", 0))
	epoch.End(1.5, F("energy_mj", 2.25), F("messages", 1))
	epoch.End(99) // second End must not emit
	root.End(2)

	want := strings.Join([]string{
		`{"seq":1,"begin":"query","id":1,"parent":0,"t":0,"planner":"lp+lf"}`,
		`{"seq":2,"begin":"sim.epoch","id":2,"parent":1,"t":0,"nodes":3}`,
		`{"seq":3,"ev":"sim.trigger","parent":2,"t":0.5,"node":1}`,
		`{"seq":4,"span":"sim.xfer","id":4,"parent":2,"start":0.5,"end":0.75,"node":2,"dst":0}`,
		`{"seq":5,"end":2,"t":1.5,"energy_mj":2.25,"messages":1}`,
		`{"seq":6,"end":1,"t":2}`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("span records:\n%swant:\n%s", buf.String(), want)
	}
}

// TestSpanNilSafety: nil tracers and nil spans must absorb the whole
// span API without emitting or panicking.
func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan(nil, "x", 0)
	if s != nil {
		t.Fatal("nil tracer returned a live span")
	}
	if s.ID() != 0 || s.Name() != "" {
		t.Error("nil span has identity")
	}
	s.End(1)
	s.Event("e", 0)
	s.Span("y", 0, 1)
	if c := s.Child("c", 0); c != nil {
		t.Error("nil span returned a live child")
	}
	if tr.Flush() != nil {
		t.Error("nil tracer Flush errored")
	}
}

// TestSpanConcurrency hammers one tracer with interleaved span/event
// emission while other goroutines hit per-worker registry handles; run
// with -race. Afterwards the trace must hold every record with strictly
// increasing seq, and the registry totals must balance exactly.
func TestSpanConcurrency(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	reg := NewRegistry()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			suffix := fmt.Sprintf(".w%d", w)
			for i := 0; i < perWorker; i++ {
				s := tr.StartSpan(nil, "round", float64(i))
				s.Event("tick", float64(i), F("w", w))
				s.Span("leaf", float64(i), float64(i)+0.5)
				s.End(float64(i) + 1)
				reg.Counter("rounds" + suffix).Inc()
				reg.Gauge("progress" + suffix).Add(1)
				reg.Histogram("lat"+suffix, []float64{0.25, 0.5}).Observe(0.3)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantRecords := workers * perWorker * 4
	if len(lines) != wantRecords {
		t.Fatalf("trace holds %d records, want %d", len(lines), wantRecords)
	}
	lastSeq := int64(0)
	for _, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved emission corrupted a line: %q: %v", line, err)
		}
		seq := int64(rec["seq"].(float64))
		if seq != lastSeq+1 {
			t.Fatalf("seq %d follows %d", seq, lastSeq)
		}
		lastSeq = seq
	}
	snap := reg.Snapshot()
	for w := 0; w < workers; w++ {
		series := fmt.Sprintf("rounds.w%d", w)
		if got := snap.Counters[series]; got != perWorker {
			t.Errorf("%s = %d, want %d", series, got, perWorker)
		}
	}
	if len(snap.Counters) != workers {
		t.Errorf("%d counter series, want %d", len(snap.Counters), workers)
	}
}

// blockyWriter fails every write once armed, counting attempts.
type blockyWriter struct {
	bytes.Buffer
	fail   bool
	writes int
}

func (b *blockyWriter) Write(p []byte) (int, error) {
	b.writes++
	if b.fail {
		return 0, errors.New("disk full")
	}
	return b.Buffer.Write(p)
}

// TestBufferedTracerFlush: a buffered tracer must not touch the
// underlying writer per record, must deliver everything on Flush, and
// must surface a flush-time failure through both Flush and Err —
// sticky, first error wins.
func TestBufferedTracerFlush(t *testing.T) {
	var w blockyWriter
	tr := NewBufferedTracer(&w)
	for i := 0; i < 10; i++ {
		tr.Event("e", float64(i))
	}
	if w.writes != 0 {
		t.Fatalf("buffered tracer hit the writer %d times before Flush", w.writes)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.String(), "\n"); got != 10 {
		t.Fatalf("flushed %d records, want 10", got)
	}

	// Now arm the failure: records buffer fine, the flush reports.
	w.fail = true
	tr.Event("doomed", 11)
	if tr.Err() != nil {
		t.Fatal("buffered write should not fail before flush")
	}
	if err := tr.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("flush error = %v, want disk full", err)
	}
	if tr.Err() == nil {
		t.Fatal("flush failure must stick in Err")
	}
	// A later recovery of the writer must not clear the sticky error.
	w.fail = false
	if err := tr.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("sticky error lost: %v", err)
	}
}

// TestBufferedTracerMidRunOverflow: when the run outgrows the buffer,
// the overflow write surfaces mid-run like an unbuffered failure and
// emission stops (no partial junk after the error).
func TestBufferedTracerMidRunOverflow(t *testing.T) {
	var w blockyWriter
	w.fail = true
	tr := NewBufferedTracer(&w)
	big := strings.Repeat("x", 4096)
	for i := 0; i < 64 && tr.Err() == nil; i++ {
		tr.Event("fill", float64(i), F("pad", big))
	}
	if tr.Err() == nil {
		t.Fatal("overflowing a failing writer never surfaced the error")
	}
	seqBefore := tr.seq
	tr.Event("after", 0)
	if tr.seq != seqBefore {
		t.Error("tracer kept assigning seqs after the write error")
	}
}

// BenchmarkSpanEmit measures trace emission on the span hot paths the
// simulator and executor sit on (`make bench` runs it).
func BenchmarkSpanEmit(b *testing.B) {
	b.Run("event-nil", func(b *testing.B) {
		var s *Span
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Event("ev", float64(i), F("node", 3))
		}
	})
	b.Run("begin-end", func(b *testing.B) {
		tr := NewTracer(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := tr.StartSpan(nil, "sim.epoch", float64(i), F("nodes", 60))
			s.End(float64(i)+1, F("energy_mj", 12.5), F("messages", 60))
		}
	})
	b.Run("flat-child", func(b *testing.B) {
		tr := NewTracer(io.Discard)
		s := tr.StartSpan(nil, "sim.epoch", 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Span("sim.xfer", float64(i), float64(i)+0.5,
				F("node", 3), F("dst", 1), F("tx_mj", 1.5), F("rx_mj", 0.5))
		}
	})
	b.Run("event-parented", func(b *testing.B) {
		tr := NewTracer(io.Discard)
		s := tr.StartSpan(nil, "sim.epoch", 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Event("sim.trigger", float64(i), F("node", 3), F("energy_mj", 0.3))
		}
	})
	b.Run("buffered-flat-child", func(b *testing.B) {
		tr := NewBufferedTracer(io.Discard)
		s := tr.StartSpan(nil, "sim.epoch", 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Span("sim.xfer", float64(i), float64(i)+0.5,
				F("node", 3), F("dst", 1), F("tx_mj", 1.5), F("rx_mj", 0.5))
		}
	})
}
