package exec

import (
	"strconv"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Metric names exported by the executor when Env.Obs is set:
//
//	exec.messages                 counter, every message of any kind
//	exec.values                   counter, value transmissions
//	exec.bytes                    counter, content bytes on the air
//	exec.requests                 counter, mop-up / naive request messages
//	exec.level.<d>.messages       counter, data messages sent by depth-d nodes
//	exec.level.<d>.bytes          counter, content bytes sent by depth-d nodes
//	exec.energy_mj.collection     gauge, accumulated collection energy
//	exec.energy_mj.trigger        gauge, accumulated trigger energy
//	exec.energy_mj.requests       gauge, accumulated request energy
//	exec.node.<id>.energy_mj      gauge, per-node radio spend (TX+RX+trigger)
//	exec.epoch_mj                 histogram, total energy per executed epoch
//
// exec.epoch_mj gets one observation per entry-point run (the ledger
// total at finish), so the telemetry collector's windowed quantiles
// over it read as live energy-per-epoch percentiles.
//
// With Env.Trace set, each entry point (Run, NaiveBatch, MopUp) wraps
// its work in an "exec.epoch" span on a deterministic step clock (one
// tick per message), carrying energy/message totals at End. Inside
// it, every data message emits an "exec.msg" event with its per-node
// energy shares (tx_mj to the sender, rx_mj to the parent), every
// trigger rebroadcast an "exec.trigger" event with the rebroadcasting
// node's energy, and every request an "exec.request" event — enough
// for tracetool attribute to rebuild the per-node energy gauges
// exactly.

// execObs holds pre-resolved metric handles so the per-message hot
// path performs no registry lookups. A nil *execObs (observability
// disabled) costs one pointer check per charge.
type execObs struct {
	net   *network.Network
	model energy.Model

	messages, values, bytes, requests *obs.Counter
	collectEnergy, triggerEnergy      *obs.Gauge
	requestEnergy                     *obs.Gauge
	epochMJ                           *obs.Histogram
	lvlMsgs, lvlBytes                 []*obs.Counter // indexed by sender depth
	nodeEnergy                        []*obs.Gauge   // indexed by node

	trace  *obs.Tracer
	parent *obs.Span // caller-supplied enclosing span (Env.Span)
	span   *obs.Span // current exec.epoch span
	step   float64   // deterministic trace clock: one tick per message

	// fields is the scratch the per-message emitters assemble records
	// in, so tracing a message never packs a fresh variadic slice.
	fields []obs.Field
}

// newExecObs resolves every handle up front; returns nil when both the
// registry and tracer are absent.
func newExecObs(r *obs.Registry, tr *obs.Tracer, net *network.Network, model energy.Model) *execObs {
	if r == nil && tr == nil {
		return nil
	}
	e := &execObs{
		net:           net,
		model:         model,
		messages:      r.Counter("exec.messages"),
		values:        r.Counter("exec.values"),
		bytes:         r.Counter("exec.bytes"),
		requests:      r.Counter("exec.requests"),
		collectEnergy: r.Gauge("exec.energy_mj.collection"),
		triggerEnergy: r.Gauge("exec.energy_mj.trigger"),
		requestEnergy: r.Gauge("exec.energy_mj.requests"),
		epochMJ:       r.Histogram("exec.epoch_mj", EpochMJBounds),
		trace:         tr,
	}
	if r != nil {
		e.lvlMsgs, e.lvlBytes = LevelCounters(r, net, "exec")
		e.nodeEnergy = make([]*obs.Gauge, net.Size())
		for i := range e.nodeEnergy {
			e.nodeEnergy[i] = r.Gauge(nodeMetric(i))
		}
	}
	return e
}

// LevelCounters resolves the per-depth data-message counters
// <prefix>.level.<d>.messages and <prefix>.level.<d>.bytes for every
// depth of net, indexed by sender depth. The simulator builds its
// sim.level.* counters here too, so the two stacks' level series
// mirror each other.
func LevelCounters(r *obs.Registry, net *network.Network, prefix string) (msgs, bytes []*obs.Counter) {
	msgs = make([]*obs.Counter, net.Height()+1)
	bytes = make([]*obs.Counter, net.Height()+1)
	for d := range msgs {
		level := prefix + ".level." + strconv.Itoa(d)
		msgs[d] = r.Counter(level + ".messages")
		bytes[d] = r.Counter(level + ".bytes")
	}
	return msgs, bytes
}

func nodeMetric(id int) string {
	return "exec.node." + strconv.Itoa(id) + ".energy_mj"
}

// begin opens an exec.epoch span on the step clock, parented to the
// caller's Env.Span. A nil receiver or absent tracer no-ops.
func (e *execObs) begin(fields ...obs.Field) {
	if e == nil || e.trace == nil {
		return
	}
	e.span = e.trace.StartSpan(e.parent, "exec.epoch", e.step, fields...)
}

// EpochMJBounds buckets per-epoch energy totals: sub-mJ idle epochs up
// through multi-joule full-collection rounds on large networks. The
// simulator's sim.epoch_mj uses the same buckets.
var EpochMJBounds = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// finish ends the epoch span with the run's ledger totals and observes
// the epoch's energy into exec.epoch_mj.
func (e *execObs) finish(led *energy.Ledger) {
	if e == nil {
		return
	}
	e.epochMJ.Observe(led.Total())
	e.span.End(e.step,
		obs.FFloat("energy_mj", led.Total()),
		obs.FInt("messages", int64(led.Messages)),
		obs.FInt("values", int64(led.Values)))
	e.span = nil
}

// event bumps the step clock and emits one trace record, parented to
// the epoch span when one is open.
func (e *execObs) event(name string, fields ...obs.Field) {
	e.step++
	if e.span != nil {
		e.span.Event(name, e.step, fields...)
		return
	}
	e.trace.Event(name, e.step, fields...)
}

// msg records one data message from v to its parent carrying nValues
// readings (contentBytes total content) at combined energy cost.
func (e *execObs) msg(v network.NodeID, nValues, contentBytes int, cost float64) {
	if e == nil {
		return
	}
	e.messages.Inc()
	e.values.Add(int64(nValues))
	e.bytes.Add(int64(contentBytes))
	e.collectEnergy.Add(cost)
	if e.lvlMsgs != nil {
		d := e.net.Depth(v)
		e.lvlMsgs[d].Inc()
		e.lvlBytes[d].Add(int64(contentBytes))
		e.nodeEnergy[v].Add(e.model.TxShare(cost))
		e.nodeEnergy[e.net.Parent(v)].Add(e.model.RxShare(cost))
	}
	if e.trace != nil {
		// "dst" (not "parent"): parented events already use the parent
		// key for the enclosing span's ID.
		// The scratch grows to the widest record once, then is reused per
		// event.
		e.fields = append(e.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FInt("dst", int64(e.net.Parent(v))),
			obs.FInt("values", int64(nValues)),
			obs.FInt("bytes", int64(contentBytes)),
			obs.FFloat("tx_mj", e.model.TxShare(cost)),
			obs.FFloat("rx_mj", e.model.RxShare(cost)))
		e.event("exec.msg", e.fields...)
	}
}

// trigger attributes the collection trigger broadcast: one Trigger()
// charge per internal node with a participating child, matching
// plan.TriggerCost and the simulator's per-node accounting. Each
// rebroadcasting node emits its own exec.trigger event so traces can
// attribute the energy per node.
func (e *execObs) trigger(p *plan.Plan) {
	if e == nil {
		return
	}
	total := 0.0
	for _, v := range e.net.Preorder() {
		for _, ch := range e.net.Children(v) {
			if p.UsesEdge(ch) {
				c := e.model.Trigger()
				total += c
				if e.nodeEnergy != nil {
					e.nodeEnergy[v].Add(c)
				}
				if e.trace != nil {
					// The scratch grows to the widest record once, then is
					// reused per event.
					e.fields = append(e.fields[:0],
						obs.FInt("node", int64(v)),
						obs.FFloat("energy_mj", c))
					e.event("exec.trigger", e.fields...)
				}
				break
			}
		}
	}
	e.triggerEnergy.Add(total)
}

// request records one request message (mop-up or naive pull) down the
// edge above v. Like msg it runs once per message and must stay off
// the heap.
func (e *execObs) request(v network.NodeID, cost float64) {
	if e == nil {
		return
	}
	e.messages.Inc()
	e.requests.Inc()
	e.requestEnergy.Add(cost)
	if e.trace != nil {
		// The scratch grows to the widest record once, then is reused per
		// event.
		e.fields = append(e.fields[:0],
			obs.FInt("node", int64(v)),
			obs.FFloat("energy_mj", cost))
		e.event("exec.request", e.fields...)
	}
}
