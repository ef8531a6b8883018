package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Tiny configs keep the full pipelines fast enough for go test while
// still exercising every code path end to end.

func tinyFigure3() Figure3Config {
	return Figure3Config{
		Nodes: 30, K: 6, Samples: 8, Eval: 4, Trials: 1, Seed: 101,
		BudgetFracs:   []float64{0.1, 0.3, 0.6},
		AccuracySteps: []float64{0.5, 1.0},
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3(tinyFigure3())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("%d series", len(res.Series))
	}
	byName := map[string][]Point{}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Errorf("series %s empty", s.Name)
		}
		byName[s.Name] = s.Points
	}
	// Naive-k at full accuracy must cost more than any approximate
	// planner's most expensive point.
	naiveMax := maxX(byName["Naive-k"])
	for _, name := range []string{"Greedy", "LP-LF", "LP+LF"} {
		if maxX(byName[name]) >= naiveMax {
			t.Errorf("%s max cost %.1f not below Naive-k %.1f", name, maxX(byName[name]), naiveMax)
		}
	}
	// Oracle's full-accuracy point is the cheapest 100%-accuracy cost.
	if maxX(byName["Oracle"]) >= naiveMax {
		t.Errorf("Oracle cost %.1f not below Naive-k %.1f", maxX(byName["Oracle"]), naiveMax)
	}
}

func maxX(pts []Point) float64 {
	m := 0.0
	for _, p := range pts {
		if p.X > m {
			m = p.X
		}
	}
	return m
}

func TestFigure4Shape(t *testing.T) {
	cfg := Figure4Config{
		Nodes: 24, K: 5, Samples: 8, Eval: 4, Trials: 1, Seed: 102,
		StdDevs: []float64{0.25, 4, 12}, BudgetFrac: 0.35,
	}
	res, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.Points) != 3 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
		// Low variance must beat the highest variance setting.
		if s.Points[0].Y < s.Points[len(s.Points)-1].Y {
			t.Errorf("series %s: accuracy rises with variance (%v)", s.Name, s.Points)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	cfg := ZonesConfig{
		Zones: 3, K: 5, Background: 10, Samples: 8, Eval: 5, Trials: 1, Seed: 103,
		Territorial: true,
		BudgetFracs: []float64{0.15, 0.4},
	}
	res, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	// At the larger budget LP+LF should not lose to LP-LF.
	lf := res.Series[0].Points
	no := res.Series[1].Points
	if lf[len(lf)-1].Y < no[len(no)-1].Y-5 {
		t.Errorf("LP+LF %.1f%% clearly below LP-LF %.1f%% under contention", lf[len(lf)-1].Y, no[len(no)-1].Y)
	}
}

func TestFigure7Shape(t *testing.T) {
	cfg := ZonesConfig{
		Zones: 3, K: 4, Background: 8, Samples: 6, Eval: 4, Trials: 1, Seed: 104,
		Territorial:     true,
		FixedBudgetFrac: 0.3,
	}
	res, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.Points) != 5 {
			t.Errorf("series %s has %d points, want 5 zone counts", s.Name, len(s.Points))
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := Figure8Config{
		Nodes: 18, K: 4, Samples: 5, Eval: 4, Trials: 1, Seed: 105,
		BudgetMults: []float64{1.05, 1.4, 1.8},
	}
	res, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]Point{}
	for _, s := range res.Series {
		names[s.Name] = s.Points
	}
	for _, want := range []string{"Phase1", "Phase2", "Total", "Naive-k", "OracleProof"} {
		if len(names[want]) == 0 {
			t.Errorf("missing series %s", want)
		}
	}
	// Phase-1 cost must not shrink with more budget (it saturates once
	// the samples are fully provable); phase-2 cost must not grow.
	p1, p2 := names["Phase1"], names["Phase2"]
	if p1[0].Y > p1[len(p1)-1].Y+1 {
		t.Errorf("phase-1 cost fell across budgets: %v", p1)
	}
	if p2[0].Y < p2[len(p2)-1].Y-1 {
		t.Errorf("phase-2 cost rose across budgets: %v", p2)
	}
	// OracleProof lower-bounds every Exact total.
	op := names["OracleProof"][0].Y
	for _, p := range names["Total"] {
		if p.Y < op-1e-6 {
			t.Errorf("Exact total %.1f below OracleProof %.1f", p.Y, op)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	cfg := DefaultFigure9Config()
	cfg.Trials = 1
	cfg.Lab.Epochs = 60
	cfg.SampleEpochs = 20
	cfg.SampleWindow = 10
	cfg.Eval = 10
	cfg.BudgetFracs = []float64{0.1, 0.3, 0.5}
	res, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	// LP+LF and LP-LF nearly identical on this data (paper's finding);
	// allow a modest tolerance at tiny scale.
	byName := map[string][]Point{}
	for _, s := range res.Series {
		byName[s.Name] = s.Points
	}
	lf, no := byName["LP+LF"], byName["LP-LF"]
	for i := range lf {
		if diff := lf[i].Y - no[i].Y; diff < -25 || diff > 25 {
			t.Errorf("point %d: LP+LF %.1f vs LP-LF %.1f diverge sharply", i, lf[i].Y, no[i].Y)
		}
	}
}

func TestSampleSizeStudyShape(t *testing.T) {
	cfg := SampleSizeConfig{
		Nodes: 24, K: 5, Eval: 5, Trials: 2, Seed: 106,
		SampleCounts: []int{1, 8, 25}, BudgetFrac: 0.35,
	}
	res, err := SampleSizeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// One sample should not beat twenty-five.
	if pts[0].Y > pts[2].Y+10 {
		t.Errorf("1 sample (%.1f%%) beat 25 samples (%.1f%%)", pts[0].Y, pts[2].Y)
	}
}

func TestInstallCostStudyShape(t *testing.T) {
	cfg := InstallCostConfig{
		Nodes: 24, K: 5, Samples: 8, Trials: 1, Seed: 107,
		BudgetFracs: []float64{0.2, 0.4},
	}
	res, err := InstallCostStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	// Install should be within an order of magnitude of collection.
	in := res.Series[0].Points
	co := res.Series[1].Points
	for i := range in {
		if in[i].Y > 3*co[i].Y {
			t.Errorf("install %.1f far above collection %.1f", in[i].Y, co[i].Y)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	res := &Result{
		ID: "demo", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 2}, {3, 4}}},
			{Name: "b", Points: []Point{{1, 5}}},
		},
		Notes: []string{"hello"},
	}
	out := res.Render()
	for _, want := range []string{"demo", "a", "b", "hello", "2.000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "series,x,y\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "a,1,2\n") || !strings.Contains(csv, "b,1,5\n") {
		t.Errorf("csv rows wrong: %q", csv)
	}
}

func TestPlot(t *testing.T) {
	res := &Result{
		ID: "p", Title: "plot demo", XLabel: "cost", YLabel: "acc",
		Series: []Series{
			{Name: "a", Points: []Point{{0, 0}, {10, 100}}},
			{Name: "b", Points: []Point{{5, 50}}},
		},
	}
	out := res.Plot(40, 10)
	for _, want := range []string{"plot demo", "o", "+", "a", "b", "cost", "acc"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 13 {
		t.Errorf("plot has %d lines", len(lines))
	}
	// Empty result does not panic.
	empty := &Result{ID: "e", Title: "empty"}
	if !strings.Contains(empty.Plot(30, 8), "no data") {
		t.Error("empty plot missing placeholder")
	}
	// Degenerate single point.
	one := &Result{ID: "1", Title: "one", Series: []Series{{Name: "s", Points: []Point{{3, 3}}}}}
	if !strings.Contains(one.Plot(30, 8), "o") {
		t.Error("single-point plot missing glyph")
	}
}

func TestSpatialStudyShape(t *testing.T) {
	cfg := SpatialStudyConfig{
		Nodes: 24, K: 5, Samples: 8, Eval: 4, Trials: 1, Seed: 108,
		BudgetFrac: 0.35, LengthScales: []float64{0, 20},
	}
	res, err := SpatialStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 100 {
				t.Errorf("series %s accuracy %g out of range", s.Name, p.Y)
			}
		}
	}
}

func TestLossyMediumStudyShape(t *testing.T) {
	cfg := LossyMediumConfig{
		Nodes: 20, K: 4, Samples: 6, Eval: 3, Trials: 1, Seed: 109,
		BudgetFrac: 0.4, LossProbs: []float64{0, 0.4},
	}
	res, err := LossyMediumStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Point{}
	for _, s := range res.Series {
		byName[s.Name] = s.Points
	}
	// Loss must not make Naive-k cheaper.
	nk := byName["Naive-k mJ"]
	if len(nk) != 2 || nk[1].Y <= nk[0].Y {
		t.Errorf("Naive-k cost did not rise with loss: %v", nk)
	}
	// Naive-k at zero loss is exact.
	if byName["Naive-k"][0].Y < 99.9 {
		t.Errorf("lossless Naive-k accuracy %.1f", byName["Naive-k"][0].Y)
	}
	// Accuracy at heavy loss must not exceed the lossless level by
	// more than noise.
	for _, name := range []string{"LP+LF", "Naive-k"} {
		pts := byName[name]
		if pts[1].Y > pts[0].Y+10 {
			t.Errorf("%s accuracy rose under loss: %v", name, pts)
		}
	}
}

func TestLossyMediumStudyDeterministic(t *testing.T) {
	// Both plans draw their losses from one simulator RNG, so the
	// figure is only replayable if they always run in the same order.
	cfg := LossyMediumConfig{
		Nodes: 20, K: 4, Samples: 6, Eval: 3, Trials: 2, Seed: 109,
		BudgetFrac: 0.4, LossProbs: []float64{0, 0.25, 0.45},
	}
	var first string
	for run := 0; run < 30; run++ {
		res, err := LossyMediumStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Render()
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d renders differently from run 0:\n%s\nvs\n%s", run, got, first)
		}
	}
}

func TestNaiveTradeoffStudyShape(t *testing.T) {
	cfg := NaiveTradeoffConfig{
		Nodes: 25, K: 5, Eval: 3, Trials: 1, Seed: 110,
		Batches: []int{1, 2, 5},
	}
	res, err := NaiveTradeoffStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Point{}
	for _, s := range res.Series {
		byName[s.Name] = s.Points
	}
	msgs := byName["messages"]
	if len(msgs) != 3 {
		t.Fatalf("%d message points", len(msgs))
	}
	// Messages fall with batch size; values do not fall.
	if msgs[0].Y < msgs[len(msgs)-1].Y {
		t.Errorf("messages rose with batch: %v", msgs)
	}
	vals := byName["values"]
	if vals[0].Y > vals[len(vals)-1].Y {
		t.Errorf("values fell with batch: %v", vals)
	}
	// Batch=1 energy dominates (the paper: NAIVE-1 overhead is prohibitive).
	en := byName["energy mJ"]
	if en[0].Y < en[len(en)-1].Y {
		t.Errorf("energy rose with batch: %v", en)
	}
}

func TestDefaultConfigsAreSane(t *testing.T) {
	// The default configs drive cmd/experiments; catch accidental
	// zero-field regressions without running them at full scale.
	f3 := DefaultFigure3Config()
	if f3.Nodes < f3.K || f3.Trials < 1 || len(f3.BudgetFracs) == 0 || len(f3.AccuracySteps) == 0 {
		t.Errorf("figure3 defaults: %+v", f3)
	}
	f4 := DefaultFigure4Config()
	if f4.Nodes < f4.K || len(f4.StdDevs) == 0 || f4.BudgetFrac <= 0 {
		t.Errorf("figure4 defaults: %+v", f4)
	}
	z := DefaultZonesConfig()
	if z.Zones < 2 || z.K < 1 || len(z.BudgetFracs) == 0 || z.FixedBudgetFrac <= 0 {
		t.Errorf("zones defaults: %+v", z)
	}
	f8 := DefaultFigure8Config()
	if f8.Nodes < f8.K || len(f8.BudgetMults) == 0 {
		t.Errorf("figure8 defaults: %+v", f8)
	}
	f9 := DefaultFigure9Config()
	if f9.K < 1 || f9.SampleEpochs < f9.SampleWindow || f9.Lab.Motes != 54 {
		t.Errorf("figure9 defaults: %+v", f9)
	}
	ss := DefaultSampleSizeConfig()
	if len(ss.SampleCounts) == 0 || ss.SampleCounts[0] != 1 {
		t.Errorf("samplesize defaults: %+v", ss)
	}
	ic := DefaultInstallCostConfig()
	if len(ic.BudgetFracs) == 0 {
		t.Errorf("installcost defaults: %+v", ic)
	}
	sp := DefaultSpatialStudyConfig()
	if len(sp.LengthScales) == 0 || sp.LengthScales[0] != 0 {
		t.Errorf("spatial defaults: %+v", sp)
	}
	lm := DefaultLossyMediumConfig()
	if len(lm.LossProbs) == 0 || lm.LossProbs[0] != 0 {
		t.Errorf("lossymedium defaults: %+v", lm)
	}
	nt := DefaultNaiveTradeoffConfig()
	if len(nt.Batches) == 0 || nt.Batches[0] != 1 {
		t.Errorf("naivetradeoff defaults: %+v", nt)
	}
}
