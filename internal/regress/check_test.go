package regress

import (
	"math"
	"strings"
	"testing"

	"prospector/internal/ledger"
	"prospector/internal/obs"
)

// manifestWith builds a minimal manifest whose gauges carry the given
// series values.
func manifestWith(values map[string]float64) *ledger.Manifest {
	reg := obs.NewRegistry()
	snap := reg.Snapshot()
	for k, v := range values {
		snap.Gauges[k] = v
	}
	return ledger.New("test", nil, snap, ledger.Environment{})
}

func fp(v float64) *float64 { return &v }

// TestJudgeEveryKind is the comparator table: every rule kind with a
// passing and a failing observation, plus the NaN fail-closed path.
func TestJudgeEveryKind(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		got  float64
		bad  bool
	}{
		{"exact pass", Rule{Series: "s", Kind: "exact", Value: 16}, 16, false},
		{"exact fail", Rule{Series: "s", Kind: "exact", Value: 16}, 17, true},
		{"exact zero pass", Rule{Series: "s", Kind: "exact"}, 0, false},
		{"abs pass at bound", Rule{Series: "s", Kind: "abs<=", Value: 10, Tolerance: 2}, 12, false},
		{"abs fail", Rule{Series: "s", Kind: "abs<=", Value: 10, Tolerance: 2}, 12.5, true},
		{"abs fail below", Rule{Series: "s", Kind: "abs<=", Value: 10, Tolerance: 2}, 7.9, true},
		{"rel pass", Rule{Series: "s", Kind: "rel<=", Value: 100, Tolerance: 0.05}, 104, false},
		{"rel fail", Rule{Series: "s", Kind: "rel<=", Value: 100, Tolerance: 0.05}, 106, true},
		{"rel negative base pass", Rule{Series: "s", Kind: "rel<=", Value: -100, Tolerance: 0.05}, -96, false},
		{"rel zero base only exact", Rule{Series: "s", Kind: "rel<=", Value: 0, Tolerance: 0.05}, 0.001, true},
		{"band pass", Rule{Series: "s", Kind: "quantile-band", Min: fp(1), Max: fp(3)}, 2, false},
		{"band pass at edge", Rule{Series: "s", Kind: "quantile-band", Min: fp(1), Max: fp(3)}, 3, false},
		{"band fail high", Rule{Series: "s", Kind: "quantile-band", Min: fp(1), Max: fp(3)}, 3.1, true},
		{"band fail low", Rule{Series: "s", Kind: "quantile-band", Min: fp(1), Max: fp(3)}, 0.9, true},
		{"NaN fails exact", Rule{Series: "s", Kind: "exact", Value: 0}, math.NaN(), true},
		{"NaN fails abs", Rule{Series: "s", Kind: "abs<=", Value: 0, Tolerance: 100}, math.NaN(), true},
		{"NaN fails band", Rule{Series: "s", Kind: "quantile-band", Min: fp(-1e18), Max: fp(1e18)}, math.NaN(), true},
	}
	for _, c := range cases {
		v, bad := Judge(c.rule, c.got)
		if bad != c.bad {
			t.Errorf("%s: judge = %v, want %v", c.name, bad, c.bad)
			continue
		}
		if bad && (v.Series != "s" || v.Kind != c.rule.Kind) {
			t.Errorf("%s: violation = %+v, want series s kind %s", c.name, v, c.rule.Kind)
		}
	}
}

// TestCheckMissingSeries: a rule over a series the manifest lacks is a
// violation, not a silent skip.
func TestCheckMissingSeries(t *testing.T) {
	b := &Baseline{Name: "b", Rules: []Rule{{Series: "not.there", Kind: "exact", Value: 1}}}
	rep := Check(b, manifestWith(nil))
	if rep.OK() || len(rep.Violations) != 1 || !rep.Violations[0].Missing {
		t.Fatalf("report = %+v, want one missing violation", rep)
	}
	if !strings.Contains(rep.Render(), "(missing)") {
		t.Errorf("render does not mark the series missing:\n%s", rep.Render())
	}
}

// TestCheckReportNamesSeriesAndRule pins the diff-style render: a
// violated series appears with its rule kind and bound.
func TestCheckReportNamesSeriesAndRule(t *testing.T) {
	b := &Baseline{Name: "fig", Rules: []Rule{
		{Series: "energy", Kind: "rel<=", Value: 100, Tolerance: 0.05},
		{Series: "msgs", Kind: "exact", Value: 10},
	}}
	rep := Check(b, manifestWith(map[string]float64{"energy": 120, "msgs": 10}))
	if rep.OK() || len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v, want exactly the energy rule", rep.Violations)
	}
	out := rep.Render()
	for _, want := range []string{"energy", "rel<=", "120", "1 of 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "msgs") {
		t.Errorf("render lists the passing series:\n%s", out)
	}
}

// TestValidateMalformed covers every structural error path of a
// baseline document.
func TestValidateMalformed(t *testing.T) {
	valid := func() *Baseline {
		return &Baseline{Name: "b", Rules: []Rule{{Series: "s", Kind: "exact", Value: 1}}}
	}
	cases := []struct {
		name  string
		mutil func(*Baseline)
		frag  string
	}{
		{"no name", func(b *Baseline) { b.Name = "" }, "no name"},
		{"no rules", func(b *Baseline) { b.Rules = nil }, "no rules"},
		{"empty series", func(b *Baseline) { b.Rules[0].Series = "" }, "empty series"},
		{"duplicate series", func(b *Baseline) { b.Rules = append(b.Rules, b.Rules[0]) }, "duplicate"},
		{"unknown kind", func(b *Baseline) { b.Rules[0].Kind = "fuzzy" }, "unknown kind"},
		{"negative tolerance", func(b *Baseline) { b.Rules[0].Tolerance = -1 }, "tolerance"},
		{"NaN tolerance", func(b *Baseline) { b.Rules[0].Tolerance = math.NaN() }, "tolerance"},
		{"infinite value", func(b *Baseline) { b.Rules[0].Value = math.Inf(1) }, "finite"},
		{"band without bounds", func(b *Baseline) { b.Rules[0].Kind = "quantile-band" }, "min and max"},
		{"band inverted", func(b *Baseline) {
			b.Rules[0].Kind = "quantile-band"
			b.Rules[0].Min, b.Rules[0].Max = fp(3), fp(1)
		}, "ordered"},
		{"band unbounded", func(b *Baseline) {
			b.Rules[0].Kind = "quantile-band"
			b.Rules[0].Min, b.Rules[0].Max = fp(math.Inf(-1)), fp(math.Inf(1))
		}, "finite"},
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("control baseline invalid: %v", err)
	}
	for _, c := range cases {
		b := valid()
		c.mutil(b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestReadRejectsMalformedJSON: parse errors and validation errors both
// surface from Read.
func TestReadRejectsMalformedJSON(t *testing.T) {
	if _, err := Read(strings.NewReader("{nope")); err == nil {
		t.Errorf("Read accepted syntactically invalid JSON")
	}
	if _, err := Read(strings.NewReader(`{"name":"b","rules":[{"series":"s","kind":"made-up"}]}`)); err == nil {
		t.Errorf("Read accepted a baseline with an unknown rule kind")
	}
}

// TestRecord: values refresh, bands re-center, kinds and tolerances
// survive, unresolvable series error out.
func TestRecord(t *testing.T) {
	b := &Baseline{Name: "b", Rules: []Rule{
		{Series: "a", Kind: "exact", Value: 1},
		{Series: "c", Kind: "rel<=", Value: 5, Tolerance: 0.1, Note: "keep me"},
		{Series: "q", Kind: "quantile-band", Tolerance: 2, Min: fp(0), Max: fp(0)},
	}}
	m := manifestWith(map[string]float64{"a": 42, "c": 7, "q": 10})
	if err := Record(b, m); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if b.Rules[0].Value != 42 || b.Rules[1].Value != 7 {
		t.Errorf("values not refreshed: %+v", b.Rules[:2])
	}
	if b.Rules[1].Tolerance != 0.1 || b.Rules[1].Note != "keep me" {
		t.Errorf("record touched reviewed fields: %+v", b.Rules[1])
	}
	if *b.Rules[2].Min != 8 || *b.Rules[2].Max != 12 {
		t.Errorf("band = [%g, %g], want [8, 12]", *b.Rules[2].Min, *b.Rules[2].Max)
	}
	if rep := Check(b, m); !rep.OK() {
		t.Errorf("freshly recorded baseline does not pass its own manifest: %+v", rep.Violations)
	}

	bad := &Baseline{Name: "b", Rules: []Rule{{Series: "ghost", Kind: "exact"}}}
	if err := Record(bad, m); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Record on a missing series: err = %v, want mention of ghost", err)
	}
}
