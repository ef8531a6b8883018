package traceanalysis_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"prospector/internal/traceanalysis"
)

// checkAnalyses runs every analysis tracetool offers over an accepted
// trace and requires each span to be reached exactly once from Roots.
func checkAnalyses(t *testing.T, tr *traceanalysis.Trace) {
	t.Helper()
	_ = traceanalysis.Summarize(tr).Render()
	_ = traceanalysis.Attribute(tr).Render()
	_ = traceanalysis.RenderCritPaths(traceanalysis.CritPaths(tr))
	_ = tr.RenderTree()
	seen := map[int64]bool{}
	for _, root := range tr.Roots {
		root.Walk(func(s *traceanalysis.Span) {
			if seen[s.ID] {
				t.Fatalf("span %d reached twice from Roots", s.ID)
			}
			seen[s.ID] = true
		})
	}
	if len(seen) != tr.SpanCount() {
		t.Fatalf("%d of %d spans reachable from Roots", len(seen), tr.SpanCount())
	}
}

func simTraceSeed(f *testing.F) []byte {
	data, err := os.ReadFile("testdata/sim_lp.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzParseTrace feeds arbitrary JSON-lines documents to Parse. It
// must never panic, and every trace it accepts must analyze without
// panicking and keep all its spans reachable from Roots. The seeds are
// the committed sim_lp.jsonl fixture and the trace fragment of the
// flight dump in flight_test.go.
func FuzzParseTrace(f *testing.F) {
	f.Add(simTraceSeed(f))
	f.Add([]byte(flightDoc[strings.IndexByte(flightDoc, '\n')+1:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := traceanalysis.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAnalyses(t, tr)
	})
}

// FuzzParseFlight feeds arbitrary documents to ParseFlight, with the
// same properties as FuzzParseTrace for the dump's trace fragment plus
// a panic-free Render. The seeds are the flight dump in flight_test.go
// and its header over the sim_lp.jsonl fixture.
func FuzzParseFlight(f *testing.F) {
	f.Add([]byte(flightDoc))
	header := flightDoc[:strings.IndexByte(flightDoc, '\n')+1]
	f.Add(append([]byte(header), simTraceSeed(f)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := traceanalysis.ParseFlight(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = d.Render()
		checkAnalyses(t, d.Trace)
	})
}
