package serve_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/serve"
)

// faultySource stamps real planners from a snapshot, wrapped so that
// a plan for faultBudget panics and the first Plan call of all waits
// for the gate: tests load the queue while the planner is stalled.
type faultySource struct {
	snap    *core.Snapshot
	stamps  atomic.Int64
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

const faultBudget = 95

func (s *faultySource) NewPlanner() (core.Planner, error) {
	s.stamps.Add(1)
	pl, err := s.snap.NewPlanner()
	if err != nil {
		return nil, err
	}
	return &faultyPlanner{src: s, inner: pl}, nil
}

type faultyPlanner struct {
	src   *faultySource
	inner core.Planner
}

func (p *faultyPlanner) Name() string { return p.inner.Name() }

func (p *faultyPlanner) Plan(budget float64) (*plan.Plan, error) {
	p.src.once.Do(func() {
		p.src.started <- struct{}{}
		<-p.src.gate
	})
	if budget == faultBudget {
		panic("injected planner fault")
	}
	return p.inner.Plan(budget)
}

// TestServePlannerPanicIsContained panics one planner while requests
// wait on its key. Only the faulted request fails, with
// ErrPlannerFault; every other waiter gets the plan a fresh planner
// makes, the key counts one restart and re-stamps its planner, and it
// keeps serving on the new planner, which contains a second fault the
// same way.
func TestServePlannerPanicIsContained(t *testing.T) {
	cfg := makeConfig(t, 7, 25, 5, 6)
	snap, err := core.NewSnapshot(cfg, core.KindLPFilter)
	if err != nil {
		t.Fatal(err)
	}
	src := &faultySource{snap: snap, started: make(chan struct{}, 1), gate: make(chan struct{})}
	reg := obs.NewRegistry()
	svc, err := serve.New(serve.Options{QueueDepth: 32, Now: time.Now, Obs: reg}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	key := serve.Key{Network: "n25", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}

	want := func(b float64) *plan.Plan {
		t.Helper()
		pl, err := snap.NewPlanner()
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan(b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	first := submitAsync(svc, key, 60)
	<-src.started
	budgets := []float64{40, 80, faultBudget, 110, 150, 200}
	waiters := make([]chan submitResult, len(budgets))
	for i, b := range budgets {
		waiters[i] = submitAsync(svc, key, b)
	}
	waitGauge(t, reg.Gauge("serve.queue_depth"), float64(len(budgets)))
	close(src.gate)

	if r := <-first; r.err != nil || !plansEqual(r.plan, want(60)) {
		t.Fatalf("budget 60: plan %v err %v", r.plan, r.err)
	}
	for i, b := range budgets {
		r := <-waiters[i]
		if b == faultBudget {
			if !errors.Is(r.err, serve.ErrPlannerFault) {
				t.Fatalf("faulting budget: err %v, want ErrPlannerFault", r.err)
			}
			continue
		}
		if r.err != nil || !plansEqual(r.plan, want(b)) {
			t.Fatalf("budget %g after the fault: plan %v err %v", b, r.plan, r.err)
		}
	}
	if got := reg.Counter("serve.worker_restarts").Value(); got != 1 {
		t.Fatalf("serve.worker_restarts = %d, want 1", got)
	}
	if got := src.stamps.Load(); got != 2 {
		t.Fatalf("%d planners stamped, want 2 (the first and one re-stamp)", got)
	}

	// The key keeps serving on the re-stamped planner.
	for _, b := range []float64{130, 60, 180} {
		p, err := svc.Submit(key, b, time.Time{})
		if err != nil || !plansEqual(p, want(b)) {
			t.Fatalf("budget %g after the restart: plan %v err %v", b, p, err)
		}
	}
	if _, err := svc.Submit(key, faultBudget, time.Time{}); !errors.Is(err, serve.ErrPlannerFault) {
		t.Fatalf("faulting budget again: err %v, want ErrPlannerFault", err)
	}
	if p, err := svc.Submit(key, 90, time.Time{}); err != nil || !plansEqual(p, want(90)) {
		t.Fatalf("budget 90 after the second restart: plan %v err %v", p, err)
	}
	if got := reg.Counter("serve.worker_restarts").Value(); got != 2 {
		t.Fatalf("serve.worker_restarts = %d, want 2", got)
	}
}

// TestHTTPPlannerFaultIs500: a planner panic reaches the client as a
// 500, and the next request on the key is a 200.
func TestHTTPPlannerFaultIs500(t *testing.T) {
	cfg := makeConfig(t, 13, 20, 4, 5)
	snap, err := core.NewSnapshot(cfg, core.KindLPFilter)
	if err != nil {
		t.Fatal(err)
	}
	src := &faultySource{snap: snap, started: make(chan struct{}, 1), gate: make(chan struct{})}
	close(src.gate)
	svc, err := serve.New(serve.Options{Now: time.Now}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := serve.Key{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
	srv := httptest.NewServer(serve.Handler(svc, base))
	defer srv.Close()
	if status, body, _ := get(t, srv.URL+"/plan?budget=95"); status != http.StatusInternalServerError {
		t.Fatalf("faulting budget: status %d (%s), want 500", status, body)
	}
	if status, body, _ := get(t, srv.URL+"/plan?budget=120"); status != http.StatusOK {
		t.Fatalf("after the fault: status %d (%s), want 200", status, body)
	}
}
