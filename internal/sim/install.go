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
	s := newSim(cfg, p, make([]float64, cfg.Net.Size()))
	inst := &installer{sim: s}
	inst.run()
	return s.res, nil
}

// installer reuses the collection simulator's event queue and medium
// state for the top-down distribution phase.
type installer struct {
	*sim
	// delivered[v] marks nodes whose bundle has arrived.
	delivered []bool
}

func (in *installer) run() {
	n := in.cfg.Net.Size()
	in.delivered = make([]bool, n)
	in.delivered[network.Root] = true
	in.em.begin("sim.install",
		obs.FStr("plan", in.plan.Kind.String()),
		obs.FInt("nodes", int64(n)))
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
			in.trySend(e.node)
		case evDelivery:
			in.deliver(e.node)
		}
	}
	in.em.finish(in.res.Latency, &in.res.Ledger)
}

// trySend attempts the unicast of child v's bundle from its parent.
func (in *installer) trySend(v network.NodeID) {
	if in.delivered[v] {
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
	in.attempts[v]++
	in.res.EdgeAttempts[v]++
	firstTry := in.firstTry[v]
	if firstTry < 0 {
		firstTry = in.now
		in.firstTry[v] = firstTry
	}
	if in.cfg.LossProb != nil && in.cfg.Rng.Float64() < in.cfg.LossProb[v] {
		in.res.EdgeFailures[v]++
		in.chargeLoss(parent, cost)
		in.em.loss(v, parent, in.now, in.attempts[v], in.cfg.Model.TxShare(cost))
		if in.attempts[v] > in.cfg.MaxRetries {
			in.res.Dropped++
			in.res.Abandoned = append(in.res.Abandoned, v)
			in.em.drop(v, in.now)
			return // the whole subtree below v stays uninstalled
		}
		in.schedule(in.now+dur*1.5, evTrySend, v)
		return
	}
	in.chargeInstall(parent, v, cost)
	in.em.installed(v, bytes, firstTry, in.now+dur,
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
	in.delivered[v] = true
	if in.now > in.res.Latency {
		in.res.Latency = in.now
	}
	for _, c := range in.cfg.Net.Children(v) {
		if in.plan.UsesEdge(c) {
			in.schedule(in.now, evTrySend, c)
		}
	}
}
