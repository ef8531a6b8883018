package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/obs/telemetry"
	"prospector/internal/regress"
)

// HTTP surface. The service mounts on the existing -listen plumbing
// (obs.Handler / telemetry.Session.Serve) next to /metrics:
//
//	/plan             answer one plan query (GET or POST)
//	/healthz          liveness: the process is up
//	/readyz           readiness: telemetry ticking AND the service
//	                  accepting work without shedding (503 when the
//	                  queue is pinned at its cap or the service closed)
//	/debug/telemetry  the windowed series document
//
// /plan query parameters:
//
//	planner      planner kind (default the base key's), in any case;
//	             an unescaped "lp+lf" arrives as "lp lf" and reads as
//	             lp+lf (core.CanonicalKind); unknown kinds are
//	             rejected by the provider with 400
//	k            rank bound (default the base key's)
//	budget       energy budget in mJ, required, finite and > 0
//	deadline_ms  per-request deadline; 0 or absent means none, at
//	             most maxDeadlineMS (the longest time.Duration)
//
// Status mapping: 200 a plan; 400 bad parameters or an unknown
// (planner, k); 429 the deadline passed before the request took the
// key's planner; 503 the queue is full or the service is shutting down
// (with Retry-After: 1); 500 the planner panicked on this request
// (ErrPlannerFault; the key re-stamps its planner).

// maxDeadlineMS is the longest deadline_ms a time.Duration holds
// (~292 years); larger values would overflow it.
const maxDeadlineMS = float64(math.MaxInt64 / int64(time.Millisecond))

// planDoc is the /plan response document.
type planDoc struct {
	Planner   string  `json:"planner"`
	K         int     `json:"k"`
	Budget    float64 `json:"budget"`
	Kind      string  `json:"kind"`
	Bandwidth []int   `json:"bandwidth"`
	Chosen    []bool  `json:"chosen,omitempty"`
}

// Handler serves /plan against the service. base supplies the network
// identity and generation every request inherits, plus the default
// planner kind and k; its Planner/K can be overridden per request.
func Handler(s *Service, base Key) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		key := base
		if p := q.Get("planner"); p != "" {
			key.Planner = core.CanonicalKind(p)
		}
		if ks := q.Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil {
				http.Error(w, "serve: bad k: "+err.Error(), http.StatusBadRequest)
				return
			}
			key.K = k
		}
		// Negated comparisons reject NaN, which fails every ordering.
		budget, err := strconv.ParseFloat(q.Get("budget"), 64)
		if err != nil || !(budget > 0) || math.IsInf(budget, 1) {
			http.Error(w, "serve: budget must be a positive finite number", http.StatusBadRequest)
			return
		}
		var deadline time.Time
		if ds := q.Get("deadline_ms"); ds != "" {
			ms, err := strconv.ParseFloat(ds, 64)
			if err != nil || !(ms >= 0 && ms <= maxDeadlineMS) {
				http.Error(w, "serve: bad deadline_ms: must be a number in [0, 9.2e12]", http.StatusBadRequest)
				return
			}
			if ms > 0 {
				deadline = s.opts.Now().Add(time.Duration(ms * float64(time.Millisecond)))
			}
		}

		p, err := s.Submit(key, budget, deadline)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case errors.Is(err, ErrDeadline):
				http.Error(w, err.Error(), http.StatusTooManyRequests)
			case errors.Is(err, ErrPlannerFault):
				http.Error(w, err.Error(), http.StatusInternalServerError)
			default:
				// Provider rejections (unknown planner kind, wrong k) and
				// planner-level errors (e.g. a budget below PROOF's
				// minimum) are the client's to fix.
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(planDoc{
			Planner:   key.Planner,
			K:         key.K,
			Budget:    budget,
			Kind:      p.Kind.String(),
			Bandwidth: p.Bandwidth,
			Chosen:    p.Chosen,
		})
	})
}

// ReadyHandler answers readiness for a serving process: ready only
// when the telemetry collector has ticked (the plain telemetry
// contract) and the service has admission headroom.
func ReadyHandler(s *Service, c *telemetry.Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if c.Ticks() == 0 {
			http.Error(w, "no samples yet", http.StatusServiceUnavailable)
			return
		}
		if err := s.Ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
}

// Endpoints assembles the full serving surface for obs.Handler /
// telemetry.Session.Serve. It replaces telemetry.Endpoints in serve mode — the
// mux panics on duplicate patterns, so exactly one composition owns
// /healthz, /readyz, and /debug/telemetry.
func Endpoints(s *Service, base Key, c *telemetry.Collector) []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "/plan", Handler: Handler(s, base)},
		{Path: "/healthz", Handler: telemetry.HealthHandler()},
		{Path: "/readyz", Handler: ReadyHandler(s, c)},
		{Path: "/debug/telemetry", Handler: c.Handler()},
	}
}

// DefaultFlightRules is the serving tier's stock flight-recorder rule
// set, judged against the live windowed series (regress grammar, see
// telemetry.Monitor): dump the flight ring when the queue pins at its
// admission cap, when any request sheds, or when dispatch latency p99
// leaves the interactive envelope, or when a planner panics and its
// key re-stamps it.
func DefaultFlightRules(queueDepth int) []regress.Rule {
	if queueDepth <= 0 {
		queueDepth = 64
	}
	return []regress.Rule{
		{Series: "serve.queue_depth", Kind: "abs<=", Value: 0, Tolerance: float64(queueDepth - 1),
			Note: "queue pinned at the admission cap: the service is saturated and about to shed"},
		{Series: "serve.shed_total.delta", Kind: "exact", Value: 0,
			Note: "any shed (full queue, missed deadline, closed) dumps the flight ring"},
		{Series: "serve.plan_ms.p99", Kind: "abs<=", Value: 0, Tolerance: 250,
			Note: "p99 solve latency above 250ms: frontier misses are paying cold solves"},
		{Series: "serve.worker_restarts.delta", Kind: "exact", Value: 0,
			Note: "a planner panicked: its request got a 500 and its key re-stamped the planner"},
	}
}
