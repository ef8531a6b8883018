package serve

import (
	"prospector/internal/obs"
)

// The serve.* metric family, published through the service registry
// alongside the planners' core.* and the solver's lp.* families (the
// pool serves ≥0.9 of its plans from warm re-solves, lp.warm_resolves,
// or with no solve at all, core.frontier_hits):
//
//	serve.requests        counter, submissions (before admission)
//	serve.coalesced       counter, requests answered by another
//	                      request's solve (equal budget, same batch)
//	serve.shed.full       counter, sheds over the queue-depth bound
//	serve.shed.deadline   counter, sheds at dispatch past the deadline
//	serve.shed.closed     counter, rejections after Close
//	serve.shed_total      counter, all sheds (the flight-rule series)
//	serve.key_errors      counter, provider/stamping failures
//	serve.worker_restarts counter, planners discarded and re-stamped
//	                      after a panic inside Plan
//	serve.queue_depth     gauge, pending requests across all keys
//	serve.keys            gauge, open pool keys
//	serve.workers         gauge, live pool workers
//	serve.batch_size      histogram, requests per worker dispatch
//	serve.batch_wait_ms   histogram, enqueue-to-dispatch wait
//	serve.plan_ms         histogram, per-solve planner latency
type metrics struct {
	requests  *obs.Counter
	coalesced *obs.Counter
	keyErrors *obs.Counter
	restarts  *obs.Counter

	shedFull     *obs.Counter
	shedDeadline *obs.Counter
	shedClosed   *obs.Counter
	shedTotal    *obs.Counter

	queueDepth *obs.Gauge
	keys       *obs.Gauge
	workers    *obs.Gauge

	batchSize   *obs.Histogram
	batchWaitMS *obs.Histogram
	planMS      *obs.Histogram
}

// batchBounds buckets requests-per-dispatch; latencyMSBounds buckets
// the wait and solve latencies in milliseconds.
var (
	batchBounds     = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	latencyMSBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}
)

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests:     reg.Counter("serve.requests"),
		coalesced:    reg.Counter("serve.coalesced"),
		keyErrors:    reg.Counter("serve.key_errors"),
		restarts:     reg.Counter("serve.worker_restarts"),
		shedFull:     reg.Counter("serve.shed.full"),
		shedDeadline: reg.Counter("serve.shed.deadline"),
		shedClosed:   reg.Counter("serve.shed.closed"),
		shedTotal:    reg.Counter("serve.shed_total"),
		queueDepth:   reg.Gauge("serve.queue_depth"),
		keys:         reg.Gauge("serve.keys"),
		workers:      reg.Gauge("serve.workers"),
		batchSize:    reg.Histogram("serve.batch_size", batchBounds),
		batchWaitMS:  reg.Histogram("serve.batch_wait_ms", latencyMSBounds),
		planMS:       reg.Histogram("serve.plan_ms", latencyMSBounds),
	}
}

// shed records one shed on its cause counter and the total. Runs on
// the admission and dispatch hot paths; counter bumps are atomic adds.
func (m *metrics) shed(cause *obs.Counter) {
	cause.Inc()
	m.shedTotal.Inc()
}
