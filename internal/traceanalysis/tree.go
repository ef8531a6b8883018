package traceanalysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one node of the reconstructed trace tree.
type Span struct {
	ID     int64
	Parent int64 // 0 when the span is a root
	Name   string
	Start  float64
	End    float64
	// Open reports the trace ended before the span's end record (a
	// crashed or truncated run).
	Open bool
	// Nums/Strs merge the fields of the begin and end records (end
	// fields win on collision).
	Nums map[string]float64
	Strs map[string]string
	// Children holds nested spans in seq order; Events the point
	// events parented here, also in seq order.
	Children []*Span
	Events   []*Record
}

// Num returns a numeric span field and whether it was present.
func (s *Span) Num(key string) (float64, bool) {
	v, ok := s.Nums[key]
	return v, ok
}

// Int returns a numeric span field truncated to int, or def when
// absent.
func (s *Span) Int(key string, def int) int {
	if v, ok := s.Nums[key]; ok {
		return int(v)
	}
	return def
}

// Duration is End-Start (0 for spans still open at trace end).
func (s *Span) Duration() float64 {
	if s.Open {
		return 0
	}
	return s.End - s.Start
}

// Walk visits the span and its descendants preorder, children in seq
// order.
func (s *Span) Walk(visit func(*Span)) {
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// Trace is a fully parsed trace.
type Trace struct {
	// Records holds every record in seq order.
	Records []Record
	// Roots holds the top-level spans (parent 0, or parent IDs the
	// trace never defined) in seq order.
	Roots []*Span
	// Loose holds events with no enclosing span, in seq order.
	Loose []*Record
	// spans indexes every span by ID.
	spans map[int64]*Span
}

// SpanCount returns the total number of spans in the tree.
func (t *Trace) SpanCount() int {
	return len(t.spans)
}

// Span returns the span with the given ID, nil when absent.
func (t *Trace) Span(id int64) *Span {
	return t.spans[id]
}

// Spans returns every span whose name matches, in seq (= ID) order.
func (t *Trace) Spans(name string) []*Span {
	ids := make([]int64, 0, len(t.spans))
	for id, s := range t.spans {
		if s.Name == name {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Span, len(ids))
	for i, id := range ids {
		out[i] = t.spans[id]
	}
	return out
}

// Parse reads a JSON-lines trace and reconstructs its span tree.
func Parse(r io.Reader) (*Trace, error) {
	recs, err := ParseRecords(r)
	if err != nil {
		return nil, err
	}
	return Build(recs)
}

// Build assembles records (in seq order) into a span tree. Unknown
// parent IDs demote the child to a root rather than failing: older
// traces reuse the "parent" key for network topology, and a prefix of
// a live trace is a legitimate input.
func Build(recs []Record) (*Trace, error) {
	t := &Trace{Records: recs, spans: map[int64]*Span{}}
	lastSeq := int64(0)
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= lastSeq {
			return nil, fmt.Errorf("traceanalysis: seq %d after %d; trace is reordered or spliced", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		switch rec.Kind {
		case KindBegin, KindSpan:
			// A span may not be its own parent, and parent 0 marks a
			// root, so no span may take ID 0: either would register the
			// span under itself, out of reach from Roots.
			switch {
			case t.spans[rec.ID] != nil:
				return nil, fmt.Errorf("traceanalysis: duplicate span id %d (seq %d)", rec.ID, rec.Seq)
			case rec.ID == 0:
				return nil, fmt.Errorf("traceanalysis: span without an id (seq %d)", rec.Seq)
			case rec.Parent == rec.ID:
				return nil, fmt.Errorf("traceanalysis: span id %d is its own parent (seq %d)", rec.ID, rec.Seq)
			}
			s := &Span{
				ID:     rec.ID,
				Parent: rec.Parent,
				Name:   rec.Name,
				Nums:   rec.Nums,
				Strs:   rec.Strs,
			}
			if rec.Kind == KindBegin {
				s.Start = rec.Time
				s.Open = true
			} else {
				s.Start, s.End = rec.Start, rec.End
			}
			t.spans[rec.ID] = s
			if p := t.spans[rec.Parent]; p != nil {
				p.Children = append(p.Children, s)
			} else {
				t.Roots = append(t.Roots, s)
			}
		case KindEnd:
			s := t.spans[rec.ID]
			if s == nil {
				return nil, fmt.Errorf("traceanalysis: end for unknown span id %d (seq %d)", rec.ID, rec.Seq)
			}
			if !s.Open {
				return nil, fmt.Errorf("traceanalysis: span id %d ended twice (seq %d)", rec.ID, rec.Seq)
			}
			s.Open = false
			s.End = rec.Time
			mergeFields(s, rec)
		case KindEvent:
			if p := t.spans[rec.Parent]; p != nil {
				p.Events = append(p.Events, rec)
			} else {
				t.Loose = append(t.Loose, rec)
			}
		}
	}
	return t, nil
}

// mergeFields folds an end record's fields into the span.
func mergeFields(s *Span, rec *Record) {
	keys := make([]string, 0, len(rec.Nums))
	for k := range rec.Nums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Nums[k] = rec.Nums[k]
	}
	keys = keys[:0]
	for k := range rec.Strs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Strs[k] = rec.Strs[k]
	}
}

// RenderTree formats the span tree as an indented outline — the
// debugging view behind `tracetool tree`.
func (t *Trace) RenderTree() string {
	var b strings.Builder
	var emit func(s *Span, depth int)
	emit = func(s *Span, depth int) {
		fmt.Fprintf(&b, "%s%s [%g, %g]", strings.Repeat("  ", depth), s.Name, s.Start, s.End)
		if s.Open {
			b.WriteString(" (open)")
		}
		if e, ok := s.Num("energy_mj"); ok {
			fmt.Fprintf(&b, " energy=%.3f mJ", e)
		}
		if m, ok := s.Num("messages"); ok {
			fmt.Fprintf(&b, " messages=%d", int64(m))
		}
		fmt.Fprintf(&b, " (%d events, %d children)\n", len(s.Events), len(s.Children))
		for _, c := range s.Children {
			emit(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		emit(r, 0)
	}
	return b.String()
}
