package sim

import (
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
)

// Metric names exported by the simulator when Config.Obs is set:
//
//	sim.messages              counter, successfully delivered data messages
//	sim.values                counter, values carried by delivered messages
//	sim.bytes                 counter, content bytes of delivered messages
//	sim.level.<d>.messages    counter, deliveries sent by depth-d nodes
//	sim.level.<d>.bytes       counter, content bytes sent by depth-d nodes
//	sim.triggers              counter, trigger rebroadcasts
//	sim.retransmissions       counter, attempts lost to the medium
//	sim.deferrals             counter, sends postponed by carrier sense
//	sim.dropped               counter, messages abandoned after MaxRetries
//	sim.latency_seconds       gauge, trigger-to-last-root-reception time
//	sim.epoch_mj              histogram, total energy per simulated epoch
//	sim.epoch_latency_seconds histogram, per-epoch collection latency
//
// The two epoch histograms get one observation per run (at finish), so
// the telemetry collector's windowed quantiles over them read as live
// per-epoch energy and latency percentiles.
//
// The delivered-message counters deliberately mirror exec.messages /
// exec.values / exec.bytes / exec.level.*: under a loss-free medium the
// two stacks must report identical numbers (enforced by
// TestLosslessMatchesExec).
//
// With Config.Trace set, the run wraps itself in a "sim.epoch" span
// ("sim.install" for the distribution phase) on the simulated clock,
// parented to Config.Span when one is supplied. Inside it, sim.trigger,
// sim.deadline, sim.defer, sim.loss, and sim.drop events record the
// protocol's progress, and one sim.xfer child span per delivered
// message covers first transmission attempt to delivery. Every record
// that spends energy carries its per-node shares (energy_mj on
// triggers, tx_mj on losses, tx_mj/rx_mj on transfers and installs) in
// the exact floats added to Result.NodeEnergy, so tracetool attribute
// can replay the trace into bitwise-identical per-node totals.

// simObs holds pre-resolved handles; nil disables instrumentation at
// the cost of one pointer check per event.
type simObs struct {
	net *network.Network

	messages, values, bytes               *obs.Counter
	lvlMsgs, lvlBytes                     []*obs.Counter
	triggers, retrans, deferrals, dropped *obs.Counter
	latency                               *obs.Gauge
	epochMJ, epochLatency                 *obs.Histogram

	trace  *obs.Tracer
	parent *obs.Span // caller-supplied enclosing span (Config.Span)
	span   *obs.Span // current sim.epoch / sim.install span

	// fields is the scratch the per-event emitters assemble records in,
	// so tracing an event never packs a fresh variadic slice.
	fields []obs.Field
}

func newSimObs(r *obs.Registry, tr *obs.Tracer, net *network.Network) *simObs {
	if r == nil && tr == nil {
		return nil
	}
	o := &simObs{
		net:          net,
		messages:     r.Counter("sim.messages"),
		values:       r.Counter("sim.values"),
		bytes:        r.Counter("sim.bytes"),
		triggers:     r.Counter("sim.triggers"),
		retrans:      r.Counter("sim.retransmissions"),
		deferrals:    r.Counter("sim.deferrals"),
		dropped:      r.Counter("sim.dropped"),
		latency:      r.Gauge("sim.latency_seconds"),
		epochMJ:      r.Histogram("sim.epoch_mj", exec.EpochMJBounds),
		epochLatency: r.Histogram("sim.epoch_latency_seconds", epochLatencyBounds),
		trace:        tr,
	}
	if r != nil {
		o.lvlMsgs, o.lvlBytes = exec.LevelCounters(r, net, "sim")
	}
	return o
}

// begin opens the phase span (sim.epoch or sim.install) at simulated
// time zero, parented to the caller's Config.Span.
func (o *simObs) begin(name string, fields ...obs.Field) {
	if o == nil || o.trace == nil {
		return
	}
	o.span = o.trace.StartSpan(o.parent, name, 0, fields...)
}

// emitEvent routes an event through the open phase span when present.
func (o *simObs) emitEvent(name string, at float64, fields ...obs.Field) {
	if o.span != nil {
		o.span.Event(name, at, fields...)
		return
	}
	o.trace.Event(name, at, fields...)
}

// delivered records one successful transmission from v carrying
// nValues readings and contentBytes of content, spanning [start, end]
// on the simulated clock. txMJ and rxMJ are the exact energy shares
// charged to the sender and the receiving parent.
func (o *simObs) delivered(v network.NodeID, nValues, contentBytes int, start, end, txMJ, rxMJ float64) {
	if o == nil {
		return
	}
	o.messages.Inc()
	o.values.Add(int64(nValues))
	o.bytes.Add(int64(contentBytes))
	if o.lvlMsgs != nil {
		d := o.net.Depth(v)
		o.lvlMsgs[d].Inc()
		o.lvlBytes[d].Add(int64(contentBytes))
	}
	if o.trace != nil {
		// "dst" (not "parent"): the record's parent key is taken by the
		// enclosing span's ID.
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FInt("dst", int64(o.net.Parent(v))),
			obs.FInt("values", int64(nValues)),
			obs.FInt("bytes", int64(contentBytes)),
			obs.FFloat("tx_mj", txMJ),
			obs.FFloat("rx_mj", rxMJ))
		if o.span != nil {
			o.span.Span("sim.xfer", start, end, o.fields...)
		} else {
			o.trace.Span("sim.xfer", start, end, o.fields...)
		}
	}
}

// installed records one delivered plan bundle on the edge above v
// (parent transmits, v receives) with its exact energy shares.
func (o *simObs) installed(v network.NodeID, bytes int, start, end, txMJ, rxMJ float64) {
	if o == nil || o.trace == nil {
		return
	}
	// The scratch grows to the widest record once, then is reused per event.
	o.fields = append(o.fields[:0],
		obs.FInt("node", int64(v)),
		obs.FInt("dst", int64(o.net.Parent(v))),
		obs.FInt("bytes", int64(bytes)),
		obs.FFloat("tx_mj", txMJ),
		obs.FFloat("rx_mj", rxMJ))
	if o.span != nil {
		o.span.Span("sim.bundle", start, end, o.fields...)
	} else {
		o.trace.Span("sim.bundle", start, end, o.fields...)
	}
}

func (o *simObs) trigger(v network.NodeID, at, energyMJ float64) {
	if o == nil {
		return
	}
	o.triggers.Inc()
	if o.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FFloat("energy_mj", energyMJ))
		o.emitEvent("sim.trigger", at, o.fields...)
	}
}

func (o *simObs) deferred(v network.NodeID, at, until float64) {
	if o == nil {
		return
	}
	o.deferrals.Inc()
	if o.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FFloat("until", until))
		o.emitEvent("sim.defer", at, o.fields...)
	}
}

// loss records one transmission attempt lost to the medium; txMJ is the
// sender's wasted TX share. sender is the transmitting node (the edge's
// lower endpoint during collection, the parent during installation).
func (o *simObs) loss(v, sender network.NodeID, at float64, attempt int, txMJ float64) {
	if o == nil {
		return
	}
	o.retrans.Inc()
	if o.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FInt("sender", int64(sender)),
			obs.FInt("attempt", int64(attempt)),
			obs.FFloat("tx_mj", txMJ))
		o.emitEvent("sim.loss", at, o.fields...)
	}
}

func (o *simObs) drop(v network.NodeID, at float64) {
	if o == nil {
		return
	}
	o.dropped.Inc()
	if o.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0], obs.FInt("node", int64(v)))
		o.emitEvent("sim.drop", at, o.fields...)
	}
}

func (o *simObs) deadline(v network.NodeID, at float64) {
	if o == nil {
		return
	}
	if o.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		o.fields = append(o.fields[:0], obs.FInt("node", int64(v)))
		o.emitEvent("sim.deadline", at, o.fields...)
	}
}

// epochLatencyBounds buckets per-epoch collection latency on the
// simulated clock (trigger to last root reception).
var epochLatencyBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// finish sets the latency gauge, observes the epoch histograms, and
// closes the phase span with the run's ledger totals.
func (o *simObs) finish(latency float64, led *energy.Ledger) {
	if o == nil {
		return
	}
	o.latency.Set(latency)
	o.epochMJ.Observe(led.Total())
	o.epochLatency.Observe(latency)
	if o.span != nil {
		o.span.End(latency,
			obs.FFloat("energy_mj", led.Total()),
			obs.FInt("messages", int64(led.Messages)),
			obs.FInt("values", int64(led.Values)))
		o.span = nil
	}
}
