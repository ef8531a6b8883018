package traceanalysis_test

import (
	"strings"
	"testing"

	"prospector/internal/traceanalysis"
)

func parseAll(t *testing.T, lines string) *traceanalysis.Trace {
	t.Helper()
	tr, err := traceanalysis.Parse(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSpanTreeShapes(t *testing.T) {
	tr := parseAll(t, `{"seq":1,"begin":"query","id":1,"parent":0,"t":0,"planner":"lp+lf"}
{"seq":2,"span":"lp.solve","id":2,"parent":1,"start":0,"end":0.5,"pivots":12}
{"seq":3,"begin":"sim.epoch","id":3,"parent":1,"t":0}
{"seq":4,"ev":"sim.trigger","parent":3,"t":0,"node":0,"energy_mj":0.3}
{"seq":5,"span":"sim.xfer","id":5,"parent":3,"start":0.1,"end":0.2,"node":2,"dst":0,"tx_mj":1.5,"rx_mj":0.5}
{"seq":6,"end":3,"t":0.9,"energy_mj":2.3,"messages":1}
{"seq":7,"end":1,"t":1}`)

	if tr.SpanCount() != 4 {
		t.Fatalf("want 4 spans, got %d", tr.SpanCount())
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "query" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	root := tr.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("query should have 2 children, got %d", len(root.Children))
	}
	epoch := tr.Span(3)
	if epoch == nil || epoch.Open {
		t.Fatalf("epoch span missing or open: %+v", epoch)
	}
	if e, ok := epoch.Num("energy_mj"); !ok || e != 2.3 {
		t.Fatalf("end-record fields not merged: %v %v", e, ok)
	}
	if epoch.End != 0.9 {
		t.Fatalf("epoch end = %v", epoch.End)
	}
	if len(epoch.Events) != 1 || epoch.Events[0].Name != "sim.trigger" {
		t.Fatalf("epoch events = %+v", epoch.Events)
	}
	if len(epoch.Children) != 1 || epoch.Children[0].Name != "sim.xfer" {
		t.Fatalf("epoch children = %+v", epoch.Children)
	}
	// The flat span's own "end" key must be read as its end time, not as
	// a span-closing record.
	if x := epoch.Children[0]; x.Start != 0.1 || x.End != 0.2 {
		t.Fatalf("sim.xfer times = [%v, %v]", x.Start, x.End)
	}
}

func TestParseOpenSpanAtTruncation(t *testing.T) {
	tr := parseAll(t, `{"seq":1,"begin":"query","id":1,"parent":0,"t":0}
{"seq":2,"begin":"sim.epoch","id":2,"parent":1,"t":0}`)
	if !tr.Span(1).Open || !tr.Span(2).Open {
		t.Fatal("truncated trace must leave spans open")
	}
	if tr.Span(2).Duration() != 0 {
		t.Fatal("open span duration must be 0")
	}
}

func TestParseLegacyFlatSpanGetsSeqID(t *testing.T) {
	tr := parseAll(t, `{"seq":3,"span":"lp.solve","start":0,"end":1,"pivots":4}
{"seq":7,"ev":"loose","t":2,"node":1}`)
	if tr.Span(3) == nil {
		t.Fatal("legacy flat span should get ID = seq")
	}
	if len(tr.Loose) != 1 {
		t.Fatalf("unparented event should be loose, got %d", len(tr.Loose))
	}
}

func TestParseUnknownParentDemotesToRoot(t *testing.T) {
	// Legacy traces reuse "parent" for network topology; an unknown
	// parent must not fail the parse.
	tr := parseAll(t, `{"seq":1,"span":"sim.xfer","start":0,"end":1,"node":5,"parent":2}`)
	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d", len(tr.Roots))
	}
}

func TestParseRejectsSelfParentedSpan(t *testing.T) {
	// Each would make the span its own child: counted by SpanCount,
	// unreachable from Roots.
	for name, doc := range map[string]string{
		"begin":       `{"seq":1,"begin":"x","id":1,"parent":1,"t":0}` + "\n" + `{"seq":2,"end":1,"t":1}`,
		"span":        `{"seq":1,"span":"x","id":3,"parent":3,"start":0,"end":1}`,
		"begin no id": `{"seq":1,"begin":"x","t":0}`,
	} {
		if _, err := traceanalysis.Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parse accepted a span that is its own parent", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"reordered seq": `{"seq":2,"ev":"a","t":0}
{"seq":1,"ev":"b","t":0}`,
		"duplicate id": `{"seq":1,"begin":"a","id":1,"t":0}
{"seq":2,"begin":"b","id":1,"t":0}`,
		"end unknown":   `{"seq":1,"end":9,"t":0}`,
		"double end":    `{"seq":1,"begin":"a","id":1,"t":0}` + "\n" + `{"seq":2,"end":1,"t":1}` + "\n" + `{"seq":3,"end":1,"t":2}`,
		"no kind key":   `{"seq":1,"t":0}`,
		"no seq":        `{"ev":"a","t":0}`,
		"two kind keys": `{"seq":1,"ev":"a","begin":"b","t":0}`,
		"bad json":      `{"seq":1,`,
		"bad value":     `{"seq":1,"ev":"a","t":0,"field":[1,2]}`,
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for _, name := range names {
		if _, err := traceanalysis.Parse(strings.NewReader(cases[name])); err == nil {
			t.Errorf("%s: parse accepted malformed trace", name)
		}
	}
}

func TestBoolFieldsBecomeNums(t *testing.T) {
	tr := parseAll(t, `{"seq":1,"ev":"a","t":0,"flag":true,"off":false}`)
	r := tr.Loose[0]
	if v, _ := r.Num("flag"); v != 1 {
		t.Fatalf("flag = %v", v)
	}
	if v, _ := r.Num("off"); v != 0 {
		t.Fatalf("off = %v", v)
	}
}

func TestCritPathOrdering(t *testing.T) {
	// A three-hop chain with a decoy branch: the path must follow the
	// latest delivery backwards, not the decoy that finished earlier.
	tr := parseAll(t, `{"seq":1,"begin":"sim.epoch","id":1,"parent":0,"t":0}
{"seq":2,"span":"sim.xfer","id":2,"parent":1,"start":0,"end":1,"node":4,"dst":2}
{"seq":3,"span":"sim.xfer","id":3,"parent":1,"start":0,"end":0.4,"node":3,"dst":2}
{"seq":4,"span":"sim.xfer","id":4,"parent":1,"start":1.5,"end":2.5,"node":2,"dst":0}
{"seq":5,"end":1,"t":2.5}`)
	paths := traceanalysis.CritPaths(tr)
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	p := paths[0]
	if p.Latency != 2.5 || len(p.Hops) != 2 {
		t.Fatalf("path = %+v", p)
	}
	if p.Hops[0].Node != 4 || p.Hops[1].Node != 2 {
		t.Fatalf("hops follow decoy: %+v", p.Hops)
	}
	if w := p.Hops[1].Wait; w != 0.5 {
		t.Fatalf("wait = %v", w)
	}
}
