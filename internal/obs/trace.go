package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Tracer emits structured events and spans as JSON-lines. Output is
// deterministic: timestamps are caller-supplied (a simulated clock or a
// step counter, never the wall clock), field order is preserved, and
// floats are formatted with the shortest round-trip representation. A
// nil *Tracer discards everything at the cost of one nil check.
//
// Individual Span handles are single-goroutine objects, but the tracer
// itself is safe for concurrent use: emission is serialized under one
// mutex, so seq numbers are strictly increasing across goroutines.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer     // guarded by mu
	bw  *bufio.Writer // guarded by mu; non-nil iff NewBufferedTracer; w aliases it
	seq int64         // guarded by mu
	err error         // guarded by mu
	buf []byte        // guarded by mu
}

// NewTracer wraps a writer. The caller owns closing/flushing the
// underlying writer; check Err after the run for deferred I/O errors.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// NewBufferedTracer wraps a writer in a buffer so hot-path emission
// costs a memory copy instead of a syscall per record. Callers must
// Flush (typically at Close time) or trailing records are lost; write
// errors surface through Err/Flush once the buffer drains.
func NewBufferedTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriterSize(w, 64*1024)
	return &Tracer{w: bw, bw: bw}
}

// Tee routes a copy of every subsequent record to w in addition to the
// tracer's existing sink. The copy is written per record, ahead of any
// internal buffering, so a bounded capture (the telemetry flight
// recorder) sees each record as it is emitted even when the primary
// sink is a buffered file. No-op on a nil tracer.
func (t *Tracer) Tee(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w = io.MultiWriter(w, t.w)
}

// Flush drains the internal buffer (a no-op for unbuffered tracers and
// on a nil tracer) and returns the first error the tracer has seen,
// which a failed flush becomes part of.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw != nil {
		if err := t.bw.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// fieldKind discriminates Field's tagged union.
type fieldKind uint8

const (
	fieldInt fieldKind = iota
	fieldFloat
	fieldStr
	fieldBool
)

// Field is one key/value pair of a trace record. The value is a tagged
// union converted to its wire shape at construction time, so building
// and emitting fields never boxes through interface{} and the trace
// hot path stays allocation-free (pinned by TestFastPathsAllocFree).
type Field struct {
	Key  string
	kind fieldKind
	num  uint64 // fieldInt: the int64 bits; fieldFloat: Float64bits; fieldBool: 0/1
	str  string
}

// FInt builds an integer field without boxing.
func FInt(key string, v int64) Field { return Field{Key: key, kind: fieldInt, num: uint64(v)} }

// FFloat builds a float field without boxing.
func FFloat(key string, v float64) Field {
	return Field{Key: key, kind: fieldFloat, num: math.Float64bits(v)}
}

// FStr builds a string field without boxing.
func FStr(key, v string) Field { return Field{Key: key, kind: fieldStr, str: v} }

// FBool builds a boolean field without boxing.
func FBool(key string, v bool) Field {
	f := Field{Key: key, kind: fieldBool}
	if v {
		f.num = 1
	}
	return f
}

// F builds a Field from an arbitrary value, converting to the wire
// shape here so record assembly never reflects. The interface{}
// signature boxes its argument; it is the cold convenience
// constructor — hot paths use FInt/FFloat/FStr/FBool.
func F(key string, val interface{}) Field {
	switch v := val.(type) {
	case int:
		return FInt(key, int64(v))
	case int64:
		return FInt(key, v)
	case float64:
		return FFloat(key, v)
	case bool:
		return FBool(key, v)
	case string:
		return FStr(key, v)
	default:
		return FStr(key, fmt.Sprint(v))
	}
}

// Event emits one instantaneous record at time at.
func (t *Tracer) Event(name string, at float64, fields ...Field) {
	if t == nil {
		return
	}
	t.emit("ev", FStr("", name), []Field{FFloat("t", at)}, fields)
}

// Span emits one interval record covering [start, end].
func (t *Tracer) Span(name string, start, end float64, fields ...Field) {
	if t == nil {
		return
	}
	t.emit("span", FStr("", name), []Field{FFloat("start", start), FFloat("end", end)}, fields)
}

// Err returns the first write error encountered (nil on a nil tracer).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// emit serializes one record. kindVal carries the value of the kind
// key (its Key is ignored): a name for ev/span/begin records, a span
// ID for end records.
func (t *Tracer) emit(kind string, kindVal Field, head, fields []Field) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(kind, kindVal, head, fields)
}

// emitLocked is emit with t.mu already held (StartSpan needs the next
// seq and the record write to be one atomic step).
func (t *Tracer) emitLocked(kind string, kindVal Field, head, fields []Field) {
	if t.err != nil {
		return
	}
	t.seq++
	t.buf = appendRecord(t.buf[:0], t.seq, kind, kindVal, head, fields)
	// Sink write: the sink is caller-chosen; NewBufferedTracer amortizes it to
	// a memcpy.
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
}

// appendRecord assembles one JSON-lines record into b — the caller's
// scratch, so growth amortizes to the record-size high-water mark —
// and returns the extended slice.
func appendRecord(b []byte, seq int64, kind string, kindVal Field, head, fields []Field) []byte {
	b = append(b, '{')
	b = append(b, `"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, ',', '"')
	b = append(b, kind...)
	b = append(b, '"', ':')
	b = appendFieldValue(b, kindVal)
	for _, f := range head {
		b = appendField(b, f)
	}
	for _, f := range fields {
		b = appendField(b, f)
	}
	b = append(b, '}', '\n')
	return b
}

// appendField appends ,"key":value to b.
func appendField(b []byte, f Field) []byte {
	b = append(b, ',')
	b = strconv.AppendQuote(b, f.Key)
	b = append(b, ':')
	return appendFieldValue(b, f)
}

// appendFieldValue appends f's value in its wire shape.
func appendFieldValue(b []byte, f Field) []byte {
	switch f.kind {
	case fieldInt:
		return strconv.AppendInt(b, int64(f.num), 10)
	case fieldFloat:
		return strconv.AppendFloat(b, math.Float64frombits(f.num), 'g', -1, 64)
	case fieldBool:
		return strconv.AppendBool(b, f.num != 0)
	default:
		return strconv.AppendQuote(b, f.str)
	}
}
