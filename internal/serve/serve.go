// Package serve is the concurrent plan-serving tier: a long-running
// service that answers many concurrent clients from the parametric
// planners (internal/core), which are not safe for concurrent use.
//
// Requests are keyed by (network, sample generation, planner kind, k)
// — the identity of one frozen planning state (core.Snapshot). Per
// key, the service keeps one planner stamped from the key's snapshot,
// behind a mutex, and each request is served on its caller's
// goroutine while holding it. One planner per key means one budget
// frontier per snapshot: most budgets land on a piece of it and cost
// no solve at all, and a miss pays a warm re-solve that adds a piece
// every later request shares. A panic inside the planner answers its
// one request with ErrPlannerFault, and the key re-stamps its planner
// from the snapshot and keeps serving. Admission control is a bounded
// count of requests waiting for a planner — submissions beyond it
// shed immediately with ErrQueueFull — plus a per-request deadline
// judged when the request takes the planner.
//
// The service never reads the wall clock itself (this package is in
// the determinism lint scope): the owner injects one via Options.Now,
// exactly like lp.Options.Now.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Key identifies one frozen planning state: requests with equal keys
// are answered from the same snapshot by the same planner. Gen is the
// sample window's mutation generation at freeze time
// (core.Snapshot.Gen) — the same network re-snapshotted after the
// window slides is a different key.
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
// core.Snapshot on first use. Called outside the service lock; an
// error rejects the request — and is reported again for every retry,
// so providers should be cheap on the failure path.
type Provider func(key Key) (PlannerSource, error)

// Options tunes the service.
type Options struct {
	// QueueDepth bounds the requests waiting for a planner across all
	// keys; submissions beyond it shed with ErrQueueFull. Default 64.
	QueueDepth int
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
	// ErrDeadline sheds requests whose deadline passed before they
	// took the planner.
	ErrDeadline = errors.New("serve: deadline exceeded before dispatch")
	// ErrPlannerFault answers a request whose planner panicked. Only
	// that request fails: the key re-stamps its planner from its
	// source and keeps serving.
	ErrPlannerFault = errors.New("serve: planner fault")
)

// keyState is one key's planner and the source to re-stamp it from.
type keyState struct {
	src PlannerSource
	// mu serializes the key's requests on pl.
	mu sync.Mutex
	// pl is nil after a fault whose re-stamp failed; the next request
	// tries again. Guarded by mu.
	pl core.Planner
}

// Service is the plan service. Construct with New, retire with Close;
// safe for concurrent use.
type Service struct {
	opts     Options
	provider Provider
	m        *metrics

	// mu guards keys, pending and closed.
	mu      sync.Mutex
	keys    map[Key]*keyState
	pending int
	closed  bool
	// admitted joins the admitted requests; Close waits on it.
	admitted sync.WaitGroup
}

// New builds a service over the provider. Options.Now is required; a
// zero or negative QueueDepth takes the documented default.
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

// Submit answers one plan request on the caller's goroutine, blocking
// while another request holds the key's planner. A zero deadline
// means none. Shedding outcomes are the sentinel errors above; any
// other error came from the provider or the planner itself.
func (s *Service) Submit(key Key, budget float64, deadline time.Time) (*plan.Plan, error) {
	s.m.requests.Inc()
	ks, err := s.admit(key)
	if err != nil {
		return nil, err
	}
	defer s.admitted.Done()
	enqueued := s.opts.Now()

	ks.mu.Lock()
	defer ks.mu.Unlock()
	s.mu.Lock()
	s.pending--
	s.m.queueDepth.Set(float64(s.pending))
	s.mu.Unlock()

	now := s.opts.Now()
	s.m.batchWaitMS.Observe(float64(now.Sub(enqueued).Microseconds()) / 1000)
	if !deadline.IsZero() && now.After(deadline) {
		s.m.shed(s.m.shedDeadline)
		return nil, ErrDeadline
	}
	p, err := s.plan(ks, budget)
	s.m.planMS.Observe(float64(s.opts.Now().Sub(now).Microseconds()) / 1000)
	return p, err
}

// admit resolves the key's state and counts the request as pending,
// or sheds it: after Close, or with QueueDepth requests already
// waiting for a planner.
func (s *Service) admit(key Key) (*keyState, error) {
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

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.shed(s.m.shedClosed)
		return nil, ErrClosed
	}
	if s.pending >= s.opts.QueueDepth {
		s.m.shed(s.m.shedFull)
		return nil, ErrQueueFull
	}
	s.pending++
	s.m.queueDepth.Set(float64(s.pending))
	s.admitted.Add(1)
	return ks, nil
}

// openKey resolves the provider, stamps the key's planner and
// publishes its state. Both run outside the lock, so a racing
// submitter can win publication; the loser's planner is discarded.
func (s *Service) openKey(key Key) (*keyState, error) {
	src, err := s.provider(key)
	if err != nil {
		s.m.keyErrors.Inc()
		return nil, fmt.Errorf("serve: open %v: %w", key, err)
	}
	pl, err := src.NewPlanner()
	if err != nil {
		s.m.keyErrors.Inc()
		return nil, fmt.Errorf("serve: open %v: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if ks := s.keys[key]; ks != nil {
		return ks, nil
	}
	ks := &keyState{src: src, pl: pl}
	s.keys[key] = ks
	s.m.keys.Set(float64(len(s.keys)))
	return ks, nil
}

// plan asks the key's planner for budget, with ks.mu held, and
// contains a panic in it: the request gets ErrPlannerFault, and the
// planner, which the panic may have left half-edited, is dropped with
// its frontier. The key counts a restart and re-stamps its planner
// from its immutable source; a re-stamp that fails is retried at the
// next request, which meanwhile fails with ErrPlannerFault too.
func (s *Service) plan(ks *keyState, budget float64) (p *plan.Plan, err error) {
	if ks.pl == nil {
		pl, err := ks.src.NewPlanner()
		if err != nil {
			return nil, fmt.Errorf("%w: re-stamping the planner: %v", ErrPlannerFault, err)
		}
		ks.pl = pl
	}
	defer func() {
		if v := recover(); v != nil {
			s.m.restarts.Inc()
			ks.pl = nil
			if pl, serr := ks.src.NewPlanner(); serr == nil {
				ks.pl = pl
			}
			p, err = nil, fmt.Errorf("%w: %v", ErrPlannerFault, v)
		}
	}()
	return ks.pl.Plan(budget)
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

// Close stops admission and waits until every admitted request is
// answered. Idempotent; concurrent Submits either complete or fail
// with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.admitted.Wait()
}
