package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/regress"
	"prospector/internal/sample"
	"prospector/internal/serve"
	"prospector/internal/workload"
)

// makeConfig builds one deterministic planning scenario.
func makeConfig(t testing.TB, seed int64, nodes, k, nSamples int) core.Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, nSamples)); err != nil {
		t.Fatal(err)
	}
	return core.Config{Net: net, Costs: plan.NewCosts(net, energy.DefaultModel()), Samples: set, K: k}
}

// snapshotProvider serves real core snapshots for one scenario: any
// of the four planner kinds at the scenario's k; everything else is a
// provider error (the HTTP 400 path).
func snapshotProvider(cfg core.Config) serve.Provider {
	return func(key serve.Key) (serve.PlannerSource, error) {
		if key.K != cfg.K {
			return nil, fmt.Errorf("no snapshot for k=%d (serving k=%d)", key.K, cfg.K)
		}
		snap, err := core.NewSnapshot(cfg, key.Planner)
		if err != nil {
			return nil, err
		}
		return snap, nil
	}
}

// planKey compares plans structurally (Kind + Bandwidth + Chosen),
// like core's plansEqual.
func plansEqual(a, b *plan.Plan) bool {
	return a.Kind == b.Kind &&
		reflect.DeepEqual(a.Bandwidth, b.Bandwidth) &&
		reflect.DeepEqual(a.Chosen, b.Chosen)
}

// fakeClock is a race-safe monotonic test clock: every Now call
// advances it by step.
type fakeClock struct {
	ns   int64
	step int64
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{step: int64(step)}
}

func (c *fakeClock) Now() time.Time {
	return time.Unix(0, atomic.AddInt64(&c.ns, c.step))
}

// blockingSource is a controllable PlannerSource: every Plan call
// signals started and waits for one release, so tests can stall the
// key's planner with the queue in a known state.
type blockingSource struct {
	started chan struct{}
	release chan struct{}
	solves  atomic.Int64
	plan    *plan.Plan
}

func newBlockingSource(t *testing.T) *blockingSource {
	t.Helper()
	net, err := network.New([]network.NodeID{0, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.NewFiltering(net, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &blockingSource{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		plan:    p,
	}
}

func (b *blockingSource) NewPlanner() (core.Planner, error) {
	return &blockingPlanner{src: b}, nil
}

type blockingPlanner struct{ src *blockingSource }

func (p *blockingPlanner) Name() string { return "blocking" }

func (p *blockingPlanner) Plan(budget float64) (*plan.Plan, error) {
	p.src.started <- struct{}{}
	<-p.src.release
	p.src.solves.Add(1)
	if budget < 0 {
		return nil, fmt.Errorf("blocking: negative budget %g", budget)
	}
	return p.src.plan, nil
}

func sourceProvider(src serve.PlannerSource) serve.Provider {
	return func(serve.Key) (serve.PlannerSource, error) { return src, nil }
}

// waitGauge polls a gauge until it reaches want (the queue settling).
func waitGauge(t *testing.T, g *obs.Gauge, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %g, want %g", g.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

type submitResult struct {
	plan *plan.Plan
	err  error
}

func submitAsync(svc *serve.Service, key serve.Key, budget float64) chan submitResult {
	ch := make(chan submitResult, 1)
	go func() {
		p, err := svc.Submit(key, budget, time.Time{})
		ch <- submitResult{plan: p, err: err}
	}()
	return ch
}

// drain releases a blockingSource forever (teardown helper).
func drain(src *blockingSource) {
	for {
		select {
		case src.release <- struct{}{}:
		case <-time.After(2 * time.Second):
			return
		}
	}
}

// TestServeShedsWhenQueueFull: with the planner stalled and the queue
// at its depth bound, the next submission sheds immediately with
// ErrQueueFull, Ready reports the saturation, and the shed counters
// advance.
func TestServeShedsWhenQueueFull(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	svc, err := serve.New(serve.Options{
		QueueDepth: 3, Now: newFakeClock(time.Microsecond).Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go drain(src)
		svc.Close()
	}()
	key := serve.Key{Network: "test", Planner: "blocking", K: 1}

	stall := submitAsync(svc, key, 1)
	<-src.started // planner busy; queue empty
	var queued []chan submitResult
	for i := 0; i < 3; i++ {
		queued = append(queued, submitAsync(svc, key, float64(10+i)))
	}
	waitGauge(t, reg.Gauge("serve.queue_depth"), 3)

	if _, err := svc.Submit(key, 50, time.Time{}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if err := svc.Ready(); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("Ready at capacity: %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("serve.shed.full").Value(); got != 1 {
		t.Fatalf("serve.shed.full = %d, want 1", got)
	}
	if got := reg.Counter("serve.shed_total").Value(); got != 1 {
		t.Fatalf("serve.shed_total = %d, want 1", got)
	}

	// Unblock everything; the queued requests must all be served.
	go drain(src)
	if r := <-stall; r.err != nil {
		t.Fatal(r.err)
	}
	for i, ch := range queued {
		if r := <-ch; r.err != nil {
			t.Fatalf("queued %d: %v", i, r.err)
		}
	}
	if err := svc.Ready(); err != nil {
		t.Fatalf("Ready after drain: %v", err)
	}
}

// TestServeCloseDrainsThenRejects: Close lets queued requests finish,
// waits for them, and rejects later submissions with ErrClosed.
func TestServeCloseDrainsThenRejects(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	svc, err := serve.New(serve.Options{
		QueueDepth: 16, Now: newFakeClock(time.Microsecond).Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	key := serve.Key{Network: "test", Planner: "blocking", K: 1}

	stall := submitAsync(svc, key, 1)
	<-src.started
	var queued []chan submitResult
	for i := 0; i < 4; i++ {
		queued = append(queued, submitAsync(svc, key, float64(10+i)))
	}
	waitGauge(t, reg.Gauge("serve.queue_depth"), 4)

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	go drain(src)

	if r := <-stall; r.err != nil {
		t.Fatal(r.err)
	}
	for i, ch := range queued {
		if r := <-ch; r.err != nil {
			t.Fatalf("queued %d after Close: %v (Close must drain, not drop)", i, r.err)
		}
	}
	<-closed
	if _, err := svc.Submit(key, 5, time.Time{}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
	if got := reg.Counter("serve.shed.closed").Value(); got != 1 {
		t.Fatalf("serve.shed.closed = %d, want 1", got)
	}
}

// TestServeDeadlineShed: a request whose deadline has passed by
// dispatch time is shed with ErrDeadline, not solved.
func TestServeDeadlineShed(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	// Every clock read advances 10ms: any deadline under that is
	// guaranteed stale at dispatch.
	clock := newFakeClock(10 * time.Millisecond)
	svc, err := serve.New(serve.Options{
		QueueDepth: 16, Now: clock.Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go drain(src)
		svc.Close()
	}()
	key := serve.Key{Network: "test", Planner: "blocking", K: 1}

	stall := submitAsync(svc, key, 1)
	<-src.started
	expired := submitAsync2(svc, key, 10, clock.Now().Add(time.Millisecond))
	waitGauge(t, reg.Gauge("serve.queue_depth"), 1)
	src.release <- struct{}{} // sentinel completes; next dispatch judges the deadline

	if r := <-expired; !errors.Is(r.err, serve.ErrDeadline) {
		t.Fatalf("expired request: %v, want ErrDeadline", r.err)
	}
	if r := <-stall; r.err != nil {
		t.Fatal(r.err)
	}
	if got := src.solves.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1 (the expired request must not solve)", got)
	}
	if got := reg.Counter("serve.shed.deadline").Value(); got != 1 {
		t.Fatalf("serve.shed.deadline = %d, want 1", got)
	}
}

func submitAsync2(svc *serve.Service, key serve.Key, budget float64, deadline time.Time) chan submitResult {
	ch := make(chan submitResult, 1)
	go func() {
		p, err := svc.Submit(key, budget, deadline)
		ch <- submitResult{plan: p, err: err}
	}()
	return ch
}

// TestServePlannerErrorIsIsolated: a failing budget answers only its
// own request; neighbors on the same key still get plans.
func TestServePlannerErrorIsIsolated(t *testing.T) {
	src := newBlockingSource(t)
	svc, err := serve.New(serve.Options{
		QueueDepth: 16, Now: newFakeClock(time.Microsecond).Now,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	key := serve.Key{Network: "test", Planner: "blocking", K: 1}
	go drain(src)

	bad := submitAsync(svc, key, -5) // blockingPlanner fails on negative budgets
	good := submitAsync(svc, key, 7)
	if r := <-bad; r.err == nil {
		t.Fatal("negative budget: expected a planner error")
	}
	if r := <-good; r.err != nil || !plansEqual(r.plan, src.plan) {
		t.Fatalf("good neighbor: plan %v err %v", r.plan, r.err)
	}
}

// TestServeCoalescedShuffledMatchesCold is the serving-tier
// determinism gate (the service analog of
// TestWarmDifferentialMatchesCold): a shuffled, duplicate-heavy budget
// axis submitted concurrently through the service — one shared
// planner, warm-solved or served from its frontier — must return plans bitwise-identical to serving each budget on a
// fresh planner (rebuild + cold solve).
func TestServeCoalescedShuffledMatchesCold(t *testing.T) {
	cfg := makeConfig(t, 7, 25, 5, 6)
	reg := obs.NewRegistry()
	obsCfg := cfg
	obsCfg.Obs = reg
	svc, err := serve.New(serve.Options{
		QueueDepth: 256, Now: time.Now, Obs: reg,
	}, snapshotProvider(obsCfg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	axis := []float64{30, 50, 80, 130, 210, 340}
	// Duplicate-heavy shuffled request stream.
	rng := rand.New(rand.NewSource(41))
	var budgets []float64
	for i := 0; i < 48; i++ {
		budgets = append(budgets, axis[rng.Intn(len(axis))])
	}

	// Cold reference: a fresh planner per budget, whose first Plan is a
	// rebuild plus a cold solve.
	want := make(map[float64]*plan.Plan)
	for _, b := range axis {
		pl, err := core.NewLPFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan(b)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = p
	}

	key := serve.Key{Network: "n25", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
	var wg sync.WaitGroup
	errs := make([]error, len(budgets))
	for i, b := range budgets {
		wg.Add(1)
		go func(i int, b float64) {
			defer wg.Done()
			p, err := svc.Submit(key, b, time.Time{})
			if err != nil {
				errs[i] = err
				return
			}
			if !plansEqual(p, want[b]) {
				errs[i] = fmt.Errorf("budget %.1f: served plan %v != cold plan %v", b, p, want[b])
			}
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The key's planner must actually be warm: one cold solve to open
	// its chain, everything else a warm re-solve or a frontier hit.
	if colds := reg.Counter("lp.cold_solves").Value(); colds < 1 {
		t.Fatal("no cold solve recorded; the planner never opened a chain")
	}
	warms, hits := reg.Counter("lp.warm_resolves").Value(), reg.Counter("core.frontier_hits").Value()
	if warms+hits == 0 {
		t.Fatal("no warm resolves or frontier hits recorded; the planner is not serving warm")
	}
}

// TestServeDefaultFlightRules: the stock serving rules must pass the
// regress grammar validation telemetry.LoadRules applies.
func TestServeDefaultFlightRules(t *testing.T) {
	rules := serve.DefaultFlightRules(8)
	b := regress.Baseline{Name: "serve-defaults", Rules: rules}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Series] = true
	}
	for _, want := range []string{"serve.queue_depth", "serve.shed_total.delta", "serve.plan_ms.p99", "serve.worker_restarts.delta"} {
		if !names[want] {
			t.Fatalf("default rules missing series %s", want)
		}
	}
}
