package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"prospector/internal/obs"
)

// frontierCase is one LP planner kind under the frontier tests, with
// its scenario shape and budget range.
type frontierCase struct {
	name             string
	kind             string
	make             func(Config) (Planner, error)
	nodes, k, window int
	// budgets draws from [lo, hi] times the scale scale returns.
	lo, hi float64
	scale  func(t *testing.T, cfg Config) float64
}

func frontierCases() []frontierCase {
	proofMin := func(t *testing.T, cfg Config) float64 {
		p, err := NewProofPlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.MinBudget()
	}
	return []frontierCase{
		{"LP-LF", KindLPNoFilter, newLPNoFilter, 40, 8, 10, 0.02, 1.2, naiveCost},
		{"LP+LF", KindLPFilter, newLPFilter, 25, 5, 6, 0.02, 1.2, naiveCost},
		{"Proof", KindProof, func(cfg Config) (Planner, error) { return NewProofPlanner(cfg) }, 15, 4, 4, 1, 3, proofMin},
	}
}

// TestFrontierMatchesFreshPlanner drives one planner per kind and seed
// through 200 random budgets in random order, so that most of them
// land on frontier pieces that earlier misses ranged: every plan must
// be byte-equal to a fresh planner's, and at both finite ends of every
// piece the interpolated support must equal a cold solve's within
// 1e-9.
func TestFrontierMatchesFreshPlanner(t *testing.T) {
	for _, tc := range frontierCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var hits, plans int64
			for seed := int64(1); seed <= 10; seed++ {
				s := makeScenario(t, seed, tc.nodes, tc.k, tc.window)
				snap, err := NewSnapshot(s.cfg, tc.kind)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				cfg := s.cfg
				cfg.Obs = reg
				p, err := tc.make(cfg)
				if err != nil {
					t.Fatal(err)
				}
				scale := tc.scale(t, s.cfg)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 200; i++ {
					b := (tc.lo + (tc.hi-tc.lo)*rng.Float64()) * scale
					got, err := p.Plan(b)
					if err != nil {
						t.Fatalf("seed %d budget %g: %v", seed, b, err)
					}
					fresh, err := snap.NewPlanner()
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Plan(b)
					if err != nil {
						t.Fatalf("seed %d budget %g: fresh planner: %v", seed, b, err)
					}
					if !bytes.Equal(got.Encode(), want.Encode()) {
						t.Fatalf("seed %d budget %g: plan %v, fresh planner's %v", seed, b, got, want)
					}
				}
				hits += reg.Counter("core.frontier_hits").Value()
				plans += 200
				c := chainOf(t, p)
				if len(c.front.pieces) == 0 {
					t.Fatalf("seed %d: 200 budgets left no frontier piece", seed)
				}
				checkPieceEnds(t, c, tc.make, s.cfg)
			}
			t.Logf("%d of %d plans were frontier hits", hits, plans)
			if hits < plans/2 {
				t.Errorf("only %d of %d plans were frontier hits", hits, plans)
			}
		})
	}
}

// checkPieceEnds compares every piece of c's frontier, at each finite
// end, with a cold solve there.
func checkPieceEnds(t *testing.T, c *paramLP, newPlanner func(Config) (Planner, error), cfg Config) {
	t.Helper()
	f := &c.front
	n := len(f.vars)
	for i, p := range f.pieces {
		if p.lo > p.hi {
			t.Fatalf("piece %d: empty interval [%g, %g]", i, p.lo, p.hi)
		}
		if i > 0 && !(f.pieces[i-1].lo < p.lo && f.pieces[i-1].hi < p.hi) {
			t.Fatalf("pieces %d and %d: [%g, %g] and [%g, %g] are not in order", i-1, i, f.pieces[i-1].lo, f.pieces[i-1].hi, p.lo, p.hi)
		}
		x0, dx := f.vals[p.off:p.off+n], f.vals[p.off+n:p.off+2*n]
		for _, r := range []float64{p.lo, p.hi} {
			if math.IsInf(r, 0) {
				continue
			}
			vars, x := coldSupport(t, newPlanner, cfg, r+c.fixed)
			for k := range f.vars {
				got := x0[k] + (r-p.ref)*dx[k]
				if d := math.Abs(got - x[vars[k]]); d > 1e-9 {
					t.Fatalf("piece %d [%g, %g] at %g: support[%d] = %.17g interpolated, %.17g cold", i, p.lo, p.hi, r, k, got, x[vars[k]])
				}
			}
		}
	}
}

// frontierScenario is an LP+LF planner whose frontier holds the piece
// of budget 100.
func frontierScenario(tb testing.TB) *paramLP {
	s := makeScenario(tb, 4, 60, 10, 15)
	p, err := NewLPFilter(s.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range []float64{100, 100} {
		if _, err := p.Plan(b); err != nil {
			tb.Fatal(err)
		}
	}
	c := &p.paramLP
	if _, hit := c.front.lookup(100); !hit {
		tb.Fatal("budget 100 is not on the frontier after its second solve")
	}
	return c
}

// TestFrontierLookupAllocFree pins that frontier.lookup allocates
// nothing.
func TestFrontierLookupAllocFree(t *testing.T) {
	c := frontierScenario(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, hit := c.front.lookup(100); !hit {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a frontier lookup allocated %v times, want 0", allocs)
	}
}

// frontierSink keeps the benchmarked points live.
var frontierSink float64

// BenchmarkFrontierLookup interpolates one frontier hit; its allocs/op
// must stay 0 (the CI bench smoke enforces this with -benchmem).
func BenchmarkFrontierLookup(b *testing.B) {
	c := frontierScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _ := c.front.lookup(100)
		frontierSink += x[c.front.vars[0]]
	}
}
