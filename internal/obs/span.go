package obs

// Causal spans. A Span is an open interval of work with a deterministic
// identity: its ID is the seq number of its "begin" record, so the same
// run always yields the same IDs and a trace file can be rebuilt into
// the identical tree (internal/traceanalysis does exactly that).
//
// Record shapes, all JSON-lines sharing the tracer's seq counter:
//
//	{"seq":N,"begin":NAME,"id":N,"parent":P,"t":START,...}   StartSpan
//	{"seq":M,"end":ID,"t":END,...}                           Span.End
//	{"seq":N,"span":NAME,"id":N,"parent":P,"start":S,"end":E,...}
//	                                           Span.Span (closed child)
//	{"seq":K,"ev":NAME,"parent":P,"t":AT,...}                Span.Event
//
// parent is 0 for root spans. The flat Tracer.Event/Tracer.Span methods
// keep emitting parentless records, so pre-span traces stay valid.
//
// Every method is nil-safe: a nil *Span (tracing disabled, or its
// tracer already failed) ignores End/Event/etc. and hands out nil
// children, so span plumbing costs instrumented code one nil check.

// SpanID identifies a span within one trace. IDs are the seq numbers
// of begin records: positive, strictly increasing in creation order.
// Zero means "no parent".
type SpanID int64

// Span is an in-progress traced interval. Create one with
// Tracer.StartSpan or Span.Child; finish it with End. A Span handle is
// a single-goroutine object (the tracer behind it is what's shared).
type Span struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	ended  bool
}

// StartSpan opens a span under parent (nil parent makes a root span)
// and emits its begin record at time start. Returns nil on a nil
// tracer, and a span that will silently discard everything if the
// tracer has already failed.
func (t *Tracer) StartSpan(parent *Span, name string, start float64, fields ...Field) *Span {
	if t == nil {
		return nil
	}
	var pid SpanID
	if parent != nil {
		pid = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(t.seq + 1) // the begin record's seq is the span's ID
	t.emitLocked("begin", FStr("", name), []Field{
		FInt("id", int64(id)),
		FInt("parent", int64(pid)),
		FFloat("t", start),
	}, fields)
	return &Span{t: t, id: id, parent: pid, name: name}
}

// ID returns the span's deterministic identifier (0 on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span's name ("" on a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span at time end, attaching the final fields (summary
// totals such as energy_mj or messages belong here). Multiple Ends
// emit once; a nil span ignores the call.
func (s *Span) End(end float64, fields ...Field) {
	if s == nil {
		return
	}
	if s.ended {
		return
	}
	s.ended = true
	s.t.emit("end", FInt("", int64(s.id)), []Field{
		FFloat("t", end),
	}, fields)
}

// Event emits an instantaneous record parented to this span. A nil
// span ignores the call (matching Tracer.Event on a nil tracer).
func (s *Span) Event(name string, at float64, fields ...Field) {
	if s == nil {
		return
	}
	s.t.emit("ev", FStr("", name), []Field{
		FInt("parent", int64(s.id)),
		FFloat("t", at),
	}, fields)
}

// Child opens a sub-span; equivalent to s.Tracer().StartSpan(s, ...).
// Returns nil on a nil span.
func (s *Span) Child(name string, start float64, fields ...Field) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartSpan(s, name, start, fields...)
}

// Span emits one already-closed child span as a single record covering
// [start, end]; its ID is the record's seq. Used for fine-grained
// leaves (one message transfer) where begin/end pairs would double the
// trace volume. A nil span ignores the call.
func (s *Span) Span(name string, start, end float64, fields ...Field) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	id := s.t.seq + 1
	s.t.emitLocked("span", FStr("", name), []Field{
		FInt("id", id),
		FInt("parent", int64(s.id)),
		FFloat("start", start),
		FFloat("end", end),
	}, fields)
}
