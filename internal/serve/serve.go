// Package serve is the concurrent plan-serving tier: a long-running
// service that turns the single-goroutine parametric planners
// (internal/core) into a pool that serves many concurrent clients.
//
// Requests are keyed by (network, sample generation, planner kind, k)
// — the identity of one frozen planning state (core.Snapshot). Per
// key, the service keeps a budget-sorted pending queue and a fixed
// pool of warm-chain workers, each owning a planner stamped from the
// shared snapshot (own model clone, own lp.Workspace, own basis chain
// and own budget frontier). A worker dispatch takes the lowest-budget
// prefix of the queue as one batch, and requests for
// bitwise-identical budgets coalesce into one plan (immutable, see
// internal/plan) shared across all their responses. Most budgets land
// on a piece of the planner's frontier and cost no solve at all, so
// the ascending order matters only on a frontier miss, whose warm
// dual-simplex recovery it keeps short. A panic inside a planner
// answers its one request with ErrPlannerFault, and the worker
// re-stamps its planner from the key's snapshot and keeps serving. Admission control is a bounded
// total queue depth — submissions beyond it shed immediately with
// ErrQueueFull — plus a per-request deadline judged at dispatch time.
//
// The service never reads the wall clock itself (this package is in
// the determinism lint scope): the owner injects one via Options.Now,
// exactly like lp.Options.Now.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Key identifies one frozen planning state: requests with equal keys
// are answers from the same snapshot and may share workers, warm
// chains, and coalesced solves. Gen is the sample window's mutation
// generation at freeze time (core.Snapshot.Gen) — the same network
// re-snapshotted after the window slides is a different key.
type Key struct {
	Network string
	Gen     uint64
	Planner string
	K       int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/gen%d/%s/k%d", k.Network, k.Gen, k.Planner, k.K)
}

// PlannerSource stamps out independent planners over one frozen
// planning state. *core.Snapshot is the production implementation.
type PlannerSource interface {
	NewPlanner() (core.Planner, error)
}

// Provider resolves a key to its planner source, typically building a
// core.Snapshot on first use. Called outside the service lock (it may
// build a whole parametric program); an error rejects the request —
// and is reported again for every retry, so providers should be cheap
// on the failure path.
type Provider func(key Key) (PlannerSource, error)

// Options tunes the service.
type Options struct {
	// QueueDepth bounds the total pending requests across all keys;
	// submissions beyond it shed with ErrQueueFull. Default 64.
	QueueDepth int
	// WorkersPerKey is the pool size per key: each worker owns one
	// planner (one warm chain) stamped from the key's source. Default 1
	// — on a single core more workers only add scheduling overhead; the
	// concurrency win comes from batching and coalescing.
	WorkersPerKey int
	// BatchMax caps how many queued requests one dispatch takes.
	// Default 16.
	BatchMax int
	// Now supplies the clock for deadlines and latency metrics.
	// Required: this package never reads the wall clock itself.
	Now func() time.Time
	// Obs receives the serve.* metrics; the planners and LP solver
	// publish their own families (core.*, lp.*) through the same
	// registry when the provider's snapshots carry it. Optional.
	Obs *obs.Registry
}

// Sentinel errors, mapped to HTTP statuses by the handler (http.go).
var (
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("serve: service closed")
	// ErrQueueFull sheds submissions over the queue-depth bound.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDeadline sheds requests whose deadline passed before dispatch.
	ErrDeadline = errors.New("serve: deadline exceeded before dispatch")
	// ErrPlannerFault answers a request whose planner panicked. Only
	// that request fails: the worker re-stamps its planner from the
	// key's source and keeps serving.
	ErrPlannerFault = errors.New("serve: planner fault")
)

// request is one pending plan query.
type request struct {
	budget   float64
	deadline time.Time // zero: no deadline
	enqueued time.Time
	done     chan response // buffered; the worker never blocks on delivery
}

// response is the worker's answer.
type response struct {
	plan *plan.Plan
	err  error
}

// keyState is one key's queue and pool. Every field is guarded by the
// owning Service's mu; the cond shares that mutex.
type keyState struct {
	cond *sync.Cond
	// queue is kept sorted by ascending budget (FIFO within equal
	// budgets), so a dispatch prefix is already one warm sweep.
	queue []*request
}

// Service is the plan-serving pool. Construct with New, retire with
// Close; safe for concurrent use.
type Service struct {
	opts     Options
	provider Provider
	m        *metrics

	// mu guards keys, states, pending and closed.
	mu   sync.Mutex
	keys map[Key]*keyState
	// states mirrors keys in insertion order, so shutdown walks the
	// pools deterministically instead of in map order.
	states  []*keyState
	pending int
	closed  bool
	// wg joins the worker goroutines; Close waits on it.
	wg sync.WaitGroup
}

// New builds a service over the provider. Options.Now is required;
// zero or negative sizing fields take the documented defaults.
func New(opts Options, provider Provider) (*Service, error) {
	if provider == nil {
		return nil, errors.New("serve: nil provider")
	}
	if opts.Now == nil {
		return nil, errors.New("serve: Options.Now is required (inject a clock)")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.WorkersPerKey <= 0 {
		opts.WorkersPerKey = 1
	}
	if opts.BatchMax <= 0 {
		opts.BatchMax = 16
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	return &Service{
		opts:     opts,
		provider: provider,
		m:        newMetrics(opts.Obs),
		keys:     make(map[Key]*keyState),
	}, nil
}

// Submit enqueues one plan request and blocks until a pool worker
// answers it. A zero deadline means none. Shedding outcomes are the
// sentinel errors above; any other error came from the provider or
// the planner itself.
func (s *Service) Submit(key Key, budget float64, deadline time.Time) (*plan.Plan, error) {
	s.m.requests.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.m.shed(s.m.shedClosed)
		return nil, ErrClosed
	}
	ks := s.keys[key]
	s.mu.Unlock()
	if ks == nil {
		var err error
		if ks, err = s.openKey(key); err != nil {
			return nil, err
		}
	}

	req := &request{budget: budget, deadline: deadline, enqueued: s.opts.Now(), done: make(chan response, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.m.shed(s.m.shedClosed)
		return nil, ErrClosed
	}
	if s.pending >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.m.shed(s.m.shedFull)
		return nil, ErrQueueFull
	}
	// Insert after the run of equal budgets: the queue stays sorted
	// ascending and equal budgets stay FIFO.
	i := sort.Search(len(ks.queue), func(i int) bool { return ks.queue[i].budget > budget })
	ks.queue = append(ks.queue, nil)
	copy(ks.queue[i+1:], ks.queue[i:])
	ks.queue[i] = req
	s.pending++
	s.m.queueDepth.Set(float64(s.pending))
	ks.cond.Signal()
	s.mu.Unlock()

	resp := <-req.done
	return resp.plan, resp.err
}

// openKey resolves the provider and publishes the key's state,
// spawning its worker pool. The provider call and the planner
// stamping run outside the lock — both may build or clone a whole LP
// — so a racing submitter can win publication; the loser's planners
// are discarded.
func (s *Service) openKey(key Key) (*keyState, error) {
	src, err := s.provider(key)
	if err != nil {
		s.m.keyErrors.Inc()
		return nil, fmt.Errorf("serve: open %v: %w", key, err)
	}
	planners := make([]core.Planner, 0, s.opts.WorkersPerKey)
	for i := 0; i < s.opts.WorkersPerKey; i++ {
		pl, err := src.NewPlanner()
		if err != nil {
			s.m.keyErrors.Inc()
			return nil, fmt.Errorf("serve: open %v: %w", key, err)
		}
		planners = append(planners, pl)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if ks := s.keys[key]; ks != nil {
		s.mu.Unlock()
		return ks, nil
	}
	ks := &keyState{cond: sync.NewCond(&s.mu)}
	s.keys[key] = ks
	s.states = append(s.states, ks)
	s.m.keys.Set(float64(len(s.keys)))
	for _, pl := range planners {
		s.wg.Add(1)
		s.m.workers.Add(1)
		// The planner was stamped on this goroutine and is handed to the
		// worker whole; nothing here touches it again. The `go` statement
		// is the happens-before edge.
		go s.worker(ks, &poolWorker{src: src, pl: pl})
	}
	s.mu.Unlock()
	return ks, nil
}

// poolWorker is what one worker goroutine owns: its planner, the
// key's source to re-stamp it from after a fault, and the memo of its
// last coalescing run.
type poolWorker struct {
	src PlannerSource
	// pl is nil after a fault whose re-stamp failed; the next request
	// tries again.
	pl   core.Planner
	memo sweepMemo
}

// worker serves one key: wait for pending requests, take the sorted
// prefix as a batch, serve it outside the lock, repeat. On Close it
// drains the remaining queue, then exits; Close joins via wg.
func (s *Service) worker(ks *keyState, w *poolWorker) {
	defer s.wg.Done()
	defer s.m.workers.Add(-1)
	batch := make([]*request, 0, s.opts.BatchMax)
	for {
		s.mu.Lock()
		for len(ks.queue) == 0 && !s.closed {
			ks.cond.Wait()
		}
		if len(ks.queue) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		// Group-commit gather: a freshly woken worker usually sees only
		// the first request of a concurrent wave — especially on few
		// cores, where the scheduler alternates one submitter with the
		// worker and every batch would degenerate to size 1, solving
		// per-request with nothing to coalesce. Yield a bounded number
		// of times so the rest of the wave can enqueue; stop as soon as
		// a yield adds nothing, the batch is full, or we're closing.
		for y := 0; y < gatherYields && len(ks.queue) < s.opts.BatchMax && !s.closed; y++ {
			s.mu.Unlock()
			runtime.Gosched()
			s.mu.Lock()
		}
		if len(ks.queue) == 0 {
			s.mu.Unlock()
			continue // another worker on this key drained the wave
		}
		n := len(ks.queue)
		if n > s.opts.BatchMax {
			n = s.opts.BatchMax
		}
		batch = append(batch[:0], ks.queue[:n]...)
		rest := copy(ks.queue, ks.queue[n:])
		for j := rest; j < len(ks.queue); j++ {
			ks.queue[j] = nil // release served requests to the GC
		}
		ks.queue = ks.queue[:rest]
		s.pending -= n
		s.m.queueDepth.Set(float64(s.pending))
		s.mu.Unlock()
		s.serveBatch(w, batch)
	}
}

// gatherYields bounds the group-commit gather loop: at most this many
// scheduler yields per dispatch, and only while each yield is still
// growing the batch.
const gatherYields = 4

// sweepMemo is the tail of a worker's last coalescing run: the most
// recent (budget, plan) it solved. It outlives the batch because a
// key's planning state is frozen (core.Snapshot) — Plan is a pure
// function of the budget for the key's whole lifetime — so a
// duplicate budget arriving in the NEXT dispatch still shares the
// solve. That matters on few-core hosts, where lockstep clients
// trickle in one at a time and same-budget requests rarely sit in one
// batch together.
type sweepMemo struct {
	plan   *plan.Plan
	budget float64
	have   bool
}

// serveBatch answers one ascending-budget batch on this worker's
// planner. Equal budgets coalesce — one plan, immutable, shared across
// every waiting response — and the run carries across batch
// boundaries through the worker's memo. A planner error, or a planner
// panic (see plan), answers only the request that caused it and
// invalidates the memo, so a bad budget never poisons its neighbors.
func (s *Service) serveBatch(w *poolWorker, batch []*request) {
	memo := &w.memo
	now := s.opts.Now()
	s.m.batchSize.Observe(float64(len(batch)))
	for _, r := range batch {
		s.m.batchWaitMS.Observe(float64(now.Sub(r.enqueued).Microseconds()) / 1000)
		if !r.deadline.IsZero() && now.After(r.deadline) {
			s.m.shed(s.m.shedDeadline)
			r.done <- response{err: ErrDeadline}
			continue
		}
		if memo.have && sameBudget(r.budget, memo.budget) {
			s.m.coalesced.Inc()
			r.done <- response{plan: memo.plan}
			continue
		}
		t0 := s.opts.Now()
		p, err := s.plan(w, r.budget)
		s.m.planMS.Observe(float64(s.opts.Now().Sub(t0).Microseconds()) / 1000)
		if err != nil {
			memo.have = false
			r.done <- response{err: err}
			continue
		}
		memo.plan, memo.budget, memo.have = p, r.budget, true
		r.done <- response{plan: p}
	}
}

// plan asks the worker's planner for budget and contains a panic in
// it: the request gets ErrPlannerFault (so serveBatch drops the memo),
// and the planner, which the panic may have left half-edited, is
// dropped with its frontier and warm chain. The worker counts a
// restart and re-stamps its planner from the key's immutable source; a
// re-stamp that fails is retried at the next request, which meanwhile
// fails with ErrPlannerFault too.
func (s *Service) plan(w *poolWorker, budget float64) (p *plan.Plan, err error) {
	if w.pl == nil {
		pl, err := w.src.NewPlanner()
		if err != nil {
			return nil, fmt.Errorf("%w: re-stamping the planner: %v", ErrPlannerFault, err)
		}
		w.pl = pl
	}
	defer func() {
		if v := recover(); v != nil {
			s.m.restarts.Inc()
			w.pl = nil
			if pl, serr := w.src.NewPlanner(); serr == nil {
				w.pl = pl
			}
			p, err = nil, fmt.Errorf("%w: %v", ErrPlannerFault, v)
		}
	}()
	return w.pl.Plan(budget)
}

// Ready reports whether the service is accepting work without
// shedding: nil when open with queue headroom, the shedding error
// otherwise. Wired into /readyz so load balancers stop routing to a
// saturated instance before it starts returning 503s.
func (s *Service) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.pending >= s.opts.QueueDepth {
		return ErrQueueFull
	}
	return nil
}

// Close stops admission, lets the workers drain every queued request,
// and joins them. Idempotent; concurrent Submits either complete or
// fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	for _, ks := range s.states {
		ks.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// sameBudget is the coalescing rule: bitwise equality, because
// coalescing must never change an answer — nearby budgets are
// distinct requests. Approved float comparison (floatcmp).
func sameBudget(a, b float64) bool { return a == b }
