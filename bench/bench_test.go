package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, end to end and then traced,
// with every output check on. Each run must pass its checks and end
// with a result line carrying every metric BENCHMARK.json names for
// every workload.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": decl.EndToEnd, "1": decl.PerLayer} {
		var out, errb bytes.Buffer
		if code := run([]string{"-smoke", "-trace", trace, "-tracedir", t.TempDir()}, &out, &errb); code != 0 {
			t.Fatalf("-trace %s exited %d:\n%s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < len(workloads) {
			t.Fatalf("-trace %s: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, errb.String())
		}
		for _, w := range workloads {
			for _, m := range want {
				got, ok := res.Metrics[w.name+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("-trace %s: %s %s = %+v, want unit %s", trace, w.name, m.Name, got, m.Unit)
				}
			}
		}
		if len(res.Metrics) != len(want)*len(workloads) {
			t.Errorf("-trace %s: %d metrics, BENCHMARK.json declares %d per workload", trace, len(res.Metrics), len(want))
		}
	}
}
