package query

import (
	"math/rand"
	"strings"
	"testing"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/workload"
)

func TestParseTopK(t *testing.T) {
	q, err := Parse("SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != TopK || q.K != 8 {
		t.Errorf("kind/k = %v/%d", q.Kind, q.K)
	}
	if q.Budget.Frac != 0.3 || q.Budget.MJ != 0 {
		t.Errorf("budget = %+v", q.Budget)
	}
	if q.Planner != PlannerLPLF {
		t.Errorf("planner = %s", q.Planner)
	}
}

func TestParseVariants(t *testing.T) {
	cases := []struct {
		in      string
		planner PlannerName
		mj      float64
		frac    float64
		samples int
	}{
		{"select top 5 from sensors", PlannerLPLF, 0, 0, 0},
		{"SELECT TOP 5 FROM s EXACT", PlannerExact, 0, 0, 0},
		{"SELECT TOP 5 FROM s WITH PROOF BUDGET 900mJ", PlannerProof, 900, 0, 0},
		{"SELECT TOP 5 FROM s BUDGET 120 USING greedy", PlannerGreedy, 120, 0, 0},
		{"SELECT TOP 5 FROM s USING lp-lf SAMPLES 20", PlannerLPNoLF, 0, 0, 20},
		{"SELECT TOP 5 FROM s BUDGET 12.5% SAMPLES 7", PlannerLPLF, 0, 0.125, 7},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if q.Planner != c.planner || q.Budget.MJ != c.mj || q.Budget.Frac != c.frac || q.Samples != c.samples {
			t.Errorf("%q: got planner=%s mj=%g frac=%g samples=%d", c.in, q.Planner, q.Budget.MJ, q.Budget.Frac, q.Samples)
		}
	}
}

func TestParseSelection(t *testing.T) {
	q, err := Parse("SELECT * FROM sensors WHERE value > 55 BUDGET 25%")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Selection || q.Threshold != 55 {
		t.Errorf("kind/threshold = %v/%g", q.Kind, q.Threshold)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"TOP 5 FROM s",                  // missing SELECT
		"SELECT TOP FROM s",             // missing k
		"SELECT TOP 0 FROM s",           // k < 1
		"SELECT TOP 2.5 FROM s",         // fractional k
		"SELECT TOP 5 FROM s BUDGET -3", // negative budget
		"SELECT TOP 5 FROM s BUDGET 30% BUDGET 10%", // duplicate
		"SELECT TOP 5 FROM s USING DIJKSTRA",        // unknown planner
		"SELECT * FROM s",                           // selection without WHERE
		"SELECT * FROM s WHERE value < 5",           // unsupported operator
		"SELECT * FROM s WHERE value > 5 EXACT",     // exact selection
		"SELECT TOP 5 FROM s FROBNICATE",            // unknown clause
		"SELECT TOP 5 FROM s SAMPLES 0",             // bad samples
		"SELECT TOP 5 @ FROM s",                     // lexer error
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestQueryString(t *testing.T) {
	q, err := Parse("SELECT TOP 8 FROM sensors BUDGET 30% USING GREEDY SAMPLES 10")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"TOP 8", "BUDGET 30%", "USING GREEDY", "SAMPLES 10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Canonical form must re-parse to the same query.
	q2, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s, err)
	}
	if *q2 != *q {
		t.Errorf("round trip: %+v != %+v", q2, q)
	}
}

func testEngine(t *testing.T) (*Engine, *workload.GaussianField) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	net, err := network.Build(network.DefaultBuildConfig(22), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(22), rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, energy.DefaultModel(), 15)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 12; e++ {
		if err := eng.Observe(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return eng, src
}

func TestEngineTopK(t *testing.T) {
	eng, src := testEngine(t)
	q, err := Parse("SELECT TOP 6 FROM sensors BUDGET 40% USING LP+LF")
	if err != nil {
		t.Fatal(err)
	}
	truth := src.Next()
	ans, err := eng.Run(q, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Values) == 0 || len(ans.Values) > 6 {
		t.Fatalf("%d values", len(ans.Values))
	}
	if ans.Ledger.Total() <= 0 {
		t.Error("no energy charged")
	}
	if acc := exec.Accuracy(ans.Values, truth, 6); acc < 0.3 {
		t.Errorf("accuracy %.2f", acc)
	}
}

func TestEngineExact(t *testing.T) {
	eng, src := testEngine(t)
	q, err := Parse("SELECT TOP 5 FROM sensors EXACT")
	if err != nil {
		t.Fatal(err)
	}
	truth := src.Next()
	ans, err := eng.Run(q, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Error("exact query not marked exact")
	}
	want := exec.TrueTopK(truth, 5)
	for i := range want {
		if ans.Values[i].Node != want[i].Node {
			t.Fatalf("rank %d: node %d, want %d", i, ans.Values[i].Node, want[i].Node)
		}
	}
}

func TestEngineProof(t *testing.T) {
	eng, src := testEngine(t)
	q, err := Parse("SELECT TOP 5 FROM sensors WITH PROOF BUDGET 95%")
	if err != nil {
		t.Fatal(err)
	}
	truth := src.Next()
	ans, err := eng.Run(q, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Proven < 0 || ans.Proven > 5 {
		t.Errorf("proven = %d", ans.Proven)
	}
	// Whatever is proven must be the true top prefix.
	want := exec.TrueTopK(truth, ans.Proven)
	for i := 0; i < ans.Proven; i++ {
		if ans.Values[i].Node != want[i].Node {
			t.Fatalf("proven rank %d wrong", i)
		}
	}
}

func TestEngineSelection(t *testing.T) {
	eng, src := testEngine(t)
	q, err := Parse("SELECT * FROM sensors WHERE value > 58 BUDGET 60% USING LP-LF")
	if err != nil {
		t.Fatal(err)
	}
	truth := src.Next()
	ans, err := eng.Run(q, truth)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ans.Values {
		if v.Val <= 58 {
			t.Errorf("returned value %g below threshold", v.Val)
		}
		if v.Val != truth[v.Node] {
			t.Errorf("node %d value %g != truth %g", v.Node, v.Val, truth[v.Node])
		}
	}
}

func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net, err := network.Build(network.DefaultBuildConfig(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, energy.DefaultModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT TOP 3 FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(q, make([]float64, 10)); err == nil {
		t.Error("Run succeeded with no observations")
	}
	if err := eng.Observe(make([]float64, 3)); err == nil {
		t.Error("Observe accepted wrong width")
	}
	if err := eng.Observe(make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(q, make([]float64, 4)); err == nil {
		t.Error("Run accepted wrong truth width")
	}
	big, err := Parse("SELECT TOP 99 FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(big, make([]float64, 10)); err == nil {
		t.Error("Run accepted k > n")
	}
}

func TestEngineWindowTrimming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, err := network.Build(network.DefaultBuildConfig(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, energy.DefaultModel(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 9; e++ {
		if err := eng.Observe(make([]float64, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Observations() != 4 {
		t.Errorf("window holds %d, want 4", eng.Observations())
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Fuzz the parser with random byte soup and mutated valid queries:
	// it must return errors, never panic.
	rng := rand.New(rand.NewSource(12))
	alphabet := []byte("SELECT TOP FROM sensors BUDGET USING WHERE value >%*.0123456789 lp+lf-@#")
	valid := "SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF SAMPLES 20"
	for trial := 0; trial < 3000; trial++ {
		var input string
		if trial%2 == 0 {
			b := make([]byte, rng.Intn(60))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			input = string(b)
		} else {
			b := []byte(valid)
			for m := 0; m < 1+rng.Intn(5); m++ {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
			input = string(b)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", input, r)
				}
			}()
			q, err := Parse(input)
			if err == nil && q == nil {
				t.Fatalf("Parse(%q) returned nil, nil", input)
			}
		}()
	}
}

func TestStandingQuery(t *testing.T) {
	eng, src := testEngine(t)
	q, err := Parse("SELECT TOP 5 FROM sensors BUDGET 40% USING LP+LF")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.DefaultAdaptivePolicy()
	policy.ReplanEvery = 4
	policy.CheckEvery = 100 // no spot checks at this test scale
	st, err := eng.Stand(q, policy, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	accSum := 0.0
	const epochs = 12
	for e := 0; e < epochs; e++ {
		truth := src.Next()
		ans, err := st.Step(truth)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if len(ans.Values) == 0 || len(ans.Values) > 5 {
			t.Fatalf("epoch %d: %d values", e, len(ans.Values))
		}
		accSum += exec.Accuracy(ans.Values, truth, 5)
	}
	if accSum/epochs < 0.3 {
		t.Errorf("standing accuracy %.2f", accSum/epochs)
	}
	stats := st.Stats()
	if stats.Epochs != epochs {
		t.Errorf("stats epochs %d", stats.Epochs)
	}
	if stats.Replans < 3 {
		t.Errorf("replans %d", stats.Replans)
	}
	if _, ok := st.EnergyBudgetCheck(); !ok {
		t.Error("standing query blew its energy envelope")
	}
	if st.Plan() == nil {
		t.Error("no plan installed")
	}
}

func TestStandRejections(t *testing.T) {
	eng, _ := testEngine(t)
	rng := rand.New(rand.NewSource(14))
	sel, err := Parse("SELECT * FROM s WHERE value > 50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Stand(sel, core.DefaultAdaptivePolicy(), rng); err == nil {
		t.Error("selection query stood")
	}
	ex, err := Parse("SELECT TOP 3 FROM s EXACT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Stand(ex, core.DefaultAdaptivePolicy(), rng); err == nil {
		t.Error("exact query stood")
	}
}

func TestStandingWithEveryPlanner(t *testing.T) {
	eng, src := testEngine(t)
	policy := core.DefaultAdaptivePolicy()
	policy.ReplanEvery = 100
	policy.CheckEvery = 100
	for i, text := range []string{
		"SELECT TOP 4 FROM s BUDGET 35% USING GREEDY",
		"SELECT TOP 4 FROM s BUDGET 35% USING LP-LF",
	} {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Stand(q, policy, rand.New(rand.NewSource(int64(20+i))))
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if _, err := st.Step(src.Next()); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}
