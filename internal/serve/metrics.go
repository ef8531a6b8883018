package serve

import (
	"prospector/internal/obs"
)

// The serve.* metric family, published through the service registry
// alongside the planners' core.* and the solver's lp.* families (a
// key's planner serves most plans with no solve at all,
// core.frontier_hits, and the rest from warm re-solves,
// lp.warm_resolves):
//
//	serve.requests        counter, submissions (before admission)
//	serve.shed.full       counter, sheds over the queue-depth bound
//	serve.shed.deadline   counter, sheds past the deadline when the
//	                      request takes the planner
//	serve.shed.closed     counter, rejections after Close
//	serve.shed_total      counter, all sheds (the flight-rule series)
//	serve.key_errors      counter, provider/stamping failures
//	serve.worker_restarts counter, planners discarded and re-stamped
//	                      after a panic inside Plan
//	serve.queue_depth     gauge, requests waiting for a planner across
//	                      all keys
//	serve.keys            gauge, open keys
//	serve.batch_wait_ms   histogram, wait from admission to holding
//	                      the key's planner
//	serve.plan_ms         histogram, per-request planner latency
type metrics struct {
	requests  *obs.Counter
	keyErrors *obs.Counter
	restarts  *obs.Counter

	shedFull     *obs.Counter
	shedDeadline *obs.Counter
	shedClosed   *obs.Counter
	shedTotal    *obs.Counter

	queueDepth *obs.Gauge
	keys       *obs.Gauge

	batchWaitMS *obs.Histogram
	planMS      *obs.Histogram
}

// latencyMSBounds buckets the wait and solve latencies in
// milliseconds. A plan served from the frontier, and most waits, take
// microseconds, so the buckets start at 1 µs: with 0.05 ms as the
// first bound every such latency shared one bucket, and p95 and p99
// read as interpolations inside it. The bounds at and above 0.05 ms
// are the ones the flight rule on serve.plan_ms.p99 was written
// against.
var latencyMSBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests:     reg.Counter("serve.requests"),
		keyErrors:    reg.Counter("serve.key_errors"),
		restarts:     reg.Counter("serve.worker_restarts"),
		shedFull:     reg.Counter("serve.shed.full"),
		shedDeadline: reg.Counter("serve.shed.deadline"),
		shedClosed:   reg.Counter("serve.shed.closed"),
		shedTotal:    reg.Counter("serve.shed_total"),
		queueDepth:   reg.Gauge("serve.queue_depth"),
		keys:         reg.Gauge("serve.keys"),
		batchWaitMS:  reg.Histogram("serve.batch_wait_ms", latencyMSBounds),
		planMS:       reg.Histogram("serve.plan_ms", latencyMSBounds),
	}
}

// shed records one shed on its cause counter and the total. Runs on
// the admission and planning hot paths; counter bumps are atomic adds.
func (m *metrics) shed(cause *obs.Counter) {
	cause.Inc()
	m.shedTotal.Inc()
}
