package telemetry

import (
	"io"
	"sync"
)

// Flight is the flight recorder: a bounded ring of the most recent
// trace records, kept in memory so a rule breach can dump the run's
// recent history (the last N epochs' spans and events) without paying
// for full tracing to disk. It implements io.Writer so it tees
// straight off a Tracer — each Write is exactly one JSON-lines record,
// which is how internal/obs emits them (one Write per record, ahead of
// any buffering; see Tracer.Tee).
//
// Append copies the record into a reused per-slot buffer, so steady-
// state recording allocates nothing; each slot grows
// once to the record-size high-water mark.
type Flight struct {
	mu      sync.Mutex
	slots   [][]byte
	head    int   // index of the oldest record
	n       int   // live records
	total   int64 // records ever appended
	dropped int64 // records evicted by the ring bound
}

// NewFlight returns a recorder retaining the last capacity records.
func NewFlight(capacity int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{slots: make([][]byte, capacity)}
}

// Append records one trace record (a full JSON line), evicting the
// oldest when the ring is full. The bytes are copied; the caller may
// reuse rec. No-op on a nil recorder.
func (f *Flight) Append(rec []byte) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var i int
	if f.n < len(f.slots) {
		i = (f.head + f.n) % len(f.slots)
		f.n++
	} else {
		i = f.head
		f.head = (f.head + 1) % len(f.slots)
		f.dropped++
	}
	f.total++
	// Each slot grows once to the record-size high-water mark, then is reused.
	f.slots[i] = append(f.slots[i][:0], rec...)
}

// Write implements io.Writer over Append, for Tracer.Tee.
func (f *Flight) Write(p []byte) (int, error) {
	f.Append(p)
	return len(p), nil
}

// Len returns the number of retained records.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Stats returns the lifetime record count and how many fell off the
// ring.
func (f *Flight) Stats() (total, dropped int64) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total, f.dropped
}

// WriteTo dumps the retained records oldest-first and returns the
// bytes written. The output is a valid JSON-lines trace fragment: the
// records kept their exact emitted bytes, so a same-seed run dumps the
// same bytes (the double-run determinism test pins this).
func (f *Flight) WriteTo(w io.Writer) (int64, error) {
	if f == nil {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var written int64
	for i := 0; i < f.n; i++ {
		rec := f.slots[(f.head+i)%len(f.slots)]
		n, err := w.Write(rec)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
