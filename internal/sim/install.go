package sim

import (
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// RunInstall simulates the initial distribution phase: the base station
// hands each participating child the bundle of encoded subplans for its
// subtree; every node peels its own part off and relays the rest, one
// unicast per participating child, with real wire sizes, optional loss,
// and the same carrier-sense medium as the collection phase. On a
// lossless medium the energy equals plan.InstallCost exactly (a
// property the tests enforce).
func RunInstall(cfg Config, p *plan.Plan) (*Result, error) {
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	s := newState(cfg, p)
	s.queue.items = make([]event, 0, p.Participants())
	inst := &installer{sim: s}
	inst.run()
	return s.res, nil
}

// installer reuses the collection simulator's node states, event queue
// and medium for the top-down distribution phase. It needs no readings,
// value arena, triggers or deadlines, so RunInstall allocates none.
type installer struct{ *sim }

func (in *installer) run() {
	in.nodes[network.Root].flags |= flagInstalled
	if in.em != nil {
		in.em.begin("sim.install",
			obs.FStr("plan", in.plan.Kind.String()),
			obs.FInt("nodes", int64(in.cfg.Net.Size())))
	}
	// The queue carries evTrySend events whose node is the RECEIVING
	// child: the parent transmits that child's bundle.
	for _, c := range in.cfg.Net.Children(network.Root) {
		if in.plan.UsesEdge(c) {
			in.schedule(0, evTrySend, c)
		}
	}
	for !in.queue.empty() {
		e := in.queue.pop()
		in.now = e.at
		switch e.kind {
		case evTrySend:
			in.trySend(network.NodeID(e.node))
		case evDelivery:
			in.deliver(network.NodeID(e.node))
		}
	}
	in.em.finish(in.res.Latency, &in.res.Ledger)
}

// trySend attempts the unicast of child v's bundle from its parent.
func (in *installer) trySend(v network.NodeID) {
	nd := &in.nodes[v]
	if nd.flags&flagInstalled != 0 {
		return
	}
	parent := in.cfg.Net.Parent(v)
	bytes := in.plan.BundleBytes(in.cfg.Net, v)
	dur := float64(in.cfg.HeaderBytes+bytes) / in.cfg.ByteRate
	// Carrier sense around the transmitting parent.
	if free := in.mediumFreeAt(parent); free > in.now {
		in.res.Deferrals++
		jitter := 0.0
		if in.cfg.Rng != nil {
			jitter = in.cfg.Rng.Float64() * dur / 4
		}
		in.em.deferred(v, in.now, free+jitter)
		in.schedule(free+jitter, evTrySend, v)
		return
	}
	in.occupyMedium(parent, dur)
	cost := in.cfg.Model.Unicast(0, bytes)
	nd.attempts++
	in.res.EdgeAttempts[v]++
	if nd.flags&flagTried == 0 {
		nd.flags |= flagTried
		nd.firstTry = in.now
	}
	if in.cfg.LossProb != nil && in.cfg.Rng.Float64() < in.cfg.LossProb[v] {
		in.res.EdgeFailures[v]++
		in.chargeLoss(parent, cost)
		in.em.loss(v, parent, in.now, int(nd.attempts), in.cfg.Model.TxShare(cost))
		if int(nd.attempts) > in.cfg.MaxRetries {
			in.res.Dropped++
			in.res.Abandoned = append(in.res.Abandoned, v)
			in.em.drop(v, in.now)
			return // the whole subtree below v stays uninstalled
		}
		in.schedule(in.now+dur*1.5, evTrySend, v)
		return
	}
	in.chargeInstall(parent, v, cost)
	in.em.installed(v, bytes, nd.firstTry, in.now+dur,
		in.cfg.Model.TxShare(cost), in.cfg.Model.RxShare(cost))
	in.schedule(in.now+dur, evDelivery, v)
}

// chargeLoss debits the parent's TX share of a lost bundle unicast.
func (in *installer) chargeLoss(parent network.NodeID, cost float64) {
	in.res.NodeEnergy[parent] += in.cfg.Model.TxShare(cost)
	in.res.Ledger.Install += in.cfg.Model.TxShare(cost)
	in.res.Retransmissions++
}

// chargeInstall debits a delivered bundle unicast from parent to v.
func (in *installer) chargeInstall(parent, v network.NodeID, cost float64) {
	in.res.NodeEnergy[parent] += in.cfg.Model.TxShare(cost)
	in.res.NodeEnergy[v] += in.cfg.Model.RxShare(cost)
	in.res.Ledger.Install += cost
	in.res.Ledger.Messages++
}

// deliver marks v installed and forwards its children's bundles.
func (in *installer) deliver(v network.NodeID) {
	in.nodes[v].flags |= flagInstalled
	if in.now > in.res.Latency {
		in.res.Latency = in.now
	}
	for _, c := range in.cfg.Net.Children(v) {
		if in.plan.UsesEdge(c) {
			in.schedule(in.now, evTrySend, c)
		}
	}
}
