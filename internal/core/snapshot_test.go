package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prospector/internal/obs"
	"prospector/internal/workload"
)

// snapshotKindFor maps a diffCase to its snapshot kind.
func snapshotKindFor(name string) string {
	switch name {
	case "LP-LF":
		return KindLPNoFilter
	case "LP+LF":
		return KindLPFilter
	case "Proof":
		return KindProof
	}
	panic("unknown diff case " + name)
}

// TestSnapshotPlannerMatchesCold: a planner stamped from a snapshot —
// pre-installed program, cloned model, own warm chain — must emit
// plans bitwise-identical to the cold reference (a fresh planner per
// budget: rebuild + cold solve), for every kind, over its budget axis.
// This is the snapshot-side analog of TestWarmDifferentialMatchesCold.
func TestSnapshotPlannerMatchesCold(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := makeScenario(t, 17, 25, 5, 6)
			snap, err := NewSnapshot(s.cfg, snapshotKindFor(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := snap.NewPlanner()
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range tc.budgets(s.cfg) {
				wp, err := warm.Plan(budget)
				if err != nil {
					t.Fatalf("budget %.1f: snapshot planner: %v", budget, err)
				}
				if cp := freshPlan(t, tc.make, s.cfg, budget); !plansEqual(wp, cp) {
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

// TestSnapshotPlannersAreIndependent: many planners stamped from one
// snapshot, each driven concurrently through its own budget sweep,
// must all match the sequential single-planner answers — the clones
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
		// Each planner is handed to exactly one goroutine, honoring the
		// //confine:goroutine contract.
		//confine:transfer each stamped planner is owned by the spawned worker alone; the spawning goroutine never touches it again
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
