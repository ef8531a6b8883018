package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"prospector/internal/obs"
	"prospector/internal/workload"
)

// TestCatalog: every kind constructs and reports its name, the query
// language's and a decoded query string's spellings resolve, and an
// unknown kind's error lists the valid ones.
func TestCatalog(t *testing.T) {
	s := makeScenario(t, 7, 12, 3, 4)
	names := map[string]string{KindGreedy: "Greedy", KindLPNoFilter: "LP-LF", KindLPFilter: "LP+LF", KindProof: "Proof"}
	check := func(name, kind string) {
		t.Helper()
		p, err := New(name, s.cfg)
		if err != nil {
			t.Errorf("%q: %v", name, err)
		} else if p.Name() != names[kind] {
			t.Errorf("%q builds %s, want %s", name, p.Name(), names[kind])
		}
	}
	for _, e := range catalog {
		check(e.kind, e.kind)
	}
	for name, kind := range map[string]string{
		"GREEDY": KindGreedy, "LP-LF": KindLPNoFilter, "LP+LF": KindLPFilter, "lp lf": KindLPFilter, "PROOF": KindProof,
	} {
		check(name, kind)
	}
	_, err := New("oracle", s.cfg)
	if err == nil {
		t.Fatal("unknown kind built a planner")
	}
	for _, e := range catalog {
		if !strings.Contains(err.Error(), e.kind) {
			t.Errorf("unknown-kind error %q does not list %s", err, e.kind)
		}
	}
}

// TestSnapshotPlannerMatchesCold: a planner built from a snapshot —
// over the frozen samples, with its own program and warm chain — must emit
// plans bitwise-identical to the cold reference (a fresh planner per
// budget: rebuild + cold solve), for every catalog kind, over its
// budget axis. This is the snapshot-side analog of
// TestWarmDifferentialMatchesCold.
func TestSnapshotPlannerMatchesCold(t *testing.T) {
	probe := makeScenario(t, 17, 25, 5, 6)
	for _, e := range catalog {
		e := e
		// Subtests carry the planner's name, as the other differential
		// tests' do.
		named, err := New(e.kind, probe.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(named.Name(), func(t *testing.T) {
			t.Parallel()
			s := makeScenario(t, 17, 25, 5, 6)
			snap, err := NewSnapshot(s.cfg, e.kind)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := snap.NewPlanner()
			if err != nil {
				t.Fatal(err)
			}
			fresh := func(cfg Config) (Planner, error) { return New(e.kind, cfg) }
			// Greedy has no differential case; LP-LF's axis suits it.
			budgets := []float64{25, 40, 60, 90, 140, 220, 350}
			for _, tc := range diffCases() {
				if tc.name == warm.Name() {
					budgets = tc.budgets(s.cfg)
				}
			}
			for _, budget := range budgets {
				wp, err := warm.Plan(budget)
				if err != nil {
					t.Fatalf("budget %.1f: snapshot planner: %v", budget, err)
				}
				if cp := freshPlan(t, fresh, s.cfg, budget); !plansEqual(wp, cp) {
					t.Fatalf("budget %.1f: snapshot plan %v != cold plan %v", budget, wp, cp)
				}
			}
		})
	}
}

// TestSnapshotFreezesSamples: mutating the live window after the
// snapshot must not change what snapshot planners produce — the
// snapshot answers against the window as it was at freeze time.
func TestSnapshotFreezesSamples(t *testing.T) {
	s := makeScenario(t, 23, 25, 5, 6)
	snap, err := NewSnapshot(s.cfg, KindLPFilter)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := snap.Gen()
	ref, err := snap.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Plan(120)
	if err != nil {
		t.Fatal(err)
	}

	// Slide the live window hard: new samples shift column sums.
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(25), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cfg.Samples.AddAll(workload.Draw(src, 8)); err != nil {
		t.Fatal(err)
	}
	if snap.Gen() != genBefore {
		t.Fatalf("snapshot generation moved with the live window: %d -> %d", genBefore, snap.Gen())
	}
	p2, err := snap.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Plan(120)
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(want, got) {
		t.Fatalf("snapshot plan changed after live-window mutation: %v vs %v", want, got)
	}
}

// TestSnapshotPlannersAreIndependent: many planners built from one
// snapshot, each driven concurrently through its own budget sweep,
// must all match the sequential single-planner answers — the planners
// share no LP state (run under -race to prove it).
func TestSnapshotPlannersAreIndependent(t *testing.T) {
	s := makeScenario(t, 31, 25, 5, 6)
	s.cfg.Obs = obs.NewRegistry() // shared registry: the lp.* metrics must be race-free too
	snap, err := NewSnapshot(s.cfg, KindLPFilter)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{30, 50, 80, 130, 210, 340}

	// Sequential reference from one snapshot planner.
	ref, err := snap.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(budgets))
	for i, b := range budgets {
		p, err := ref.Plan(b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(p)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		pl, err := snap.NewPlanner()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		// Each planner is handed to exactly one goroutine, as planners
		// are not safe for concurrent use: the spawning goroutine never
		// touches it again.
		go func(w int, pl Planner) {
			defer wg.Done()
			// Workers sweep in different rotations so chains diverge.
			for i := range budgets {
				b := budgets[(i+w)%len(budgets)]
				p, err := pl.Plan(b)
				if err != nil {
					errs[w] = err
					return
				}
				if got := fmt.Sprint(p); got != want[(i+w)%len(budgets)] {
					errs[w] = fmt.Errorf("worker %d budget %.1f: plan %s != reference %s", w, b, got, want[(i+w)%len(budgets)])
					return
				}
			}
		}(w, pl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
