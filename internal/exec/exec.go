// Package exec simulates query-plan execution over a sensor network:
// the bottom-up collection phase (with or without local filtering),
// proof-carrying collection, the exact mop-up protocol, and the
// request-driven naive baselines (NaiveBatch; batch 1 is NAIVE-1).
// Execution is deterministic given the ground-truth readings (and the
// failure model's RNG, when present) and charges every message to an
// energy ledger.
package exec

import (
	"fmt"
	"math/rand"
	"slices"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// ValueAt is a sensor reading tagged with its source node.
type ValueAt struct {
	Node network.NodeID
	Val  float64
}

// Outranks reports whether a ranks strictly above b under the
// deterministic total order used throughout: larger value first,
// smaller node ID first on ties.
func (a ValueAt) Outranks(b ValueAt) bool {
	if a.Val != b.Val {
		return a.Val > b.Val
	}
	return a.Node < b.Node
}

// SortDesc sorts values from highest to lowest rank in place. It uses
// the generic slices.SortFunc rather than sort.Slice: the latter boxes
// the slice through interface{} and allocates a closure per call, which
// would put two allocations on every message of the simulator's
// otherwise allocation-free epoch drain.
func SortDesc(vs []ValueAt) {
	slices.SortFunc(vs, func(a, b ValueAt) int {
		switch {
		case a.Outranks(b):
			return -1
		case b.Outranks(a):
			return 1
		default:
			return 0
		}
	})
}

// TrueTopK returns the top k readings of a ground-truth assignment,
// best first (all of them when k exceeds their number, none when k is
// not positive). It selects before it sorts: topK keeps the k best
// readings in a heap in O(n log k), and only those k are sorted.
func TrueTopK(values []float64, k int) []ValueAt {
	top := topK(values, make([]ValueAt, 0, min(max(k, 0), len(values))))
	SortDesc(top)
	return top
}

// Accuracy returns the fraction of the true top k present among the
// returned values (the paper's accuracy metric). A returned node is in
// the true top k exactly when its true reading does not rank below the
// k-th ranked one, so Accuracy selects that reading and counts against
// it, each node once; it sorts nothing and, up to 512 nodes and k = 32,
// allocates nothing.
func Accuracy(returned []ValueAt, truth []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	k = min(k, len(truth))
	hit := 0
	if k > 0 {
		var buf [32]ValueAt
		h := buf[:0]
		if k > len(buf) {
			h = make([]ValueAt, 0, k)
		}
		kth := topK(truth, h[:0:k])[0]
		var small [8]uint64
		seen := small[:]
		if w := (len(truth) + 63) / 64; w > len(seen) {
			seen = make([]uint64, w)
		}
		for _, r := range returned {
			if r.Node < 0 || int(r.Node) >= len(truth) {
				continue
			}
			word, bit := r.Node/64, uint64(1)<<(r.Node%64)
			if seen[word]&bit != 0 || kth.Outranks(ValueAt{Node: r.Node, Val: truth[r.Node]}) {
				continue
			}
			seen[word] |= bit
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// topK fills h to its capacity, which must not exceed len(values), with
// the highest-ranked readings, as a heap whose root h[0] is the lowest
// ranked of them: with capacity k, the k-th ranked reading overall.
func topK(values []float64, h []ValueAt) []ValueAt {
	h = h[:cap(h)]
	for i := range h {
		h[i] = ValueAt{Node: network.NodeID(i), Val: values[i]}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for i := len(h); i < len(values) && len(h) > 0; i++ {
		if x := (ValueAt{Node: network.NodeID(i), Val: values[i]}); x.Outranks(h[0]) {
			h[0] = x
			siftWorst(h, 0)
		}
	}
	return h
}

// siftWorst restores the heap order below h[i], lowest rank at the top.
func siftWorst(h []ValueAt, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[c].Outranks(h[r]) {
			c = r
		}
		if !x.Outranks(h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// FailureModel injects transient link failures (Section 4.4): each
// message on the edge above node v fails with probability Prob[v] and
// is rerouted by the reliable protocol at RerouteFactor times extra
// cost. Delivery always succeeds; only energy is affected.
type FailureModel struct {
	Prob          []float64
	RerouteFactor float64
	Rng           *rand.Rand
}

// Env bundles everything execution needs besides the plan itself.
type Env struct {
	Net      *network.Network
	Costs    *plan.Costs
	Failures *FailureModel // optional
	// Obs, when non-nil, receives exec.* metrics (see obs.go). Leaving
	// it nil keeps the per-message hot path allocation-free.
	Obs *obs.Registry
	// Trace, when non-nil, receives one exec.epoch span per run and one
	// exec.msg event per message on a deterministic step clock.
	Trace *obs.Tracer
	// Span, when non-nil, becomes the parent of the exec.epoch spans,
	// slotting executions into a caller-owned trace tree (typically the
	// CLI's root query span).
	Span *obs.Span

	// em caches resolved metric handles for one run; populated by the
	// entry points, never by callers.
	em *execObs
}

// instrumented returns a copy of the environment with metric handles
// resolved (nil handles when observability is off).
func (e Env) instrumented() Env {
	if e.Obs != nil || e.Trace != nil {
		e.em = newExecObs(e.Obs, e.Trace, e.Net, e.Costs.Model())
		e.em.parent = e.Span
	}
	return e
}

// chargeMsg adds the cost of one unicast carrying nValues readings
// plus extraBytes over the edge above v, applying failure inflation.
// It runs once per message, so it must stay off the heap even with
// metrics and tracing enabled.
func (e Env) chargeMsg(led *energy.Ledger, v network.NodeID, nValues, extraBytes int) {
	m := e.Costs.Model()
	// Per-edge Msg/Val costs come from the (possibly failure-inflated)
	// cost table; extra bytes are charged at the base rate.
	c := e.reroute(v, e.Costs.Msg[v]+e.Costs.ValueCost(v, nValues)+m.ByteCost(extraBytes))
	led.Collection += c
	led.Messages++
	led.Values += nValues
	e.em.msg(v, nValues, nValues*m.BytesPerValue+extraBytes, c)
}

// reroute applies the failure model to one unicast of the given cost
// on the edge above v: with probability Failures.Prob[v] the message
// fails and the reliable protocol reroutes it at 1+RerouteFactor times
// the cost. Every unicast charge passes through here exactly once, so
// a seeded model draws one number per message, in message order.
// Broadcasts (triggers, mop-up requests) are not rerouted.
func (e Env) reroute(v network.NodeID, cost float64) float64 {
	if f := e.Failures; f != nil && f.Prob != nil && f.Rng.Float64() < f.Prob[v] {
		cost *= 1 + f.RerouteFactor
	}
	return cost
}

// chargeTrigger debits the broadcast trigger that starts a collection
// phase.
func (e Env) chargeTrigger(led *energy.Ledger, p *plan.Plan) {
	led.Trigger += p.TriggerCost(e.Net, e.Costs)
	e.em.trigger(p)
}

// Result is the outcome of executing a plan on one epoch of readings.
type Result struct {
	// Returned holds every value that reached the root (including the
	// root's own reading), sorted from highest rank down.
	Returned []ValueAt
	// Proven counts how many leading values of Returned the root can
	// prove are the true top values in the network (Proof plans only).
	Proven int
	// Ledger accounts all energy spent by this execution.
	Ledger energy.Ledger
	// State retains per-node execution state for a mop-up phase
	// (Proof plans only).
	State *ProofState
}

// Accuracy is a convenience wrapper over the package-level Accuracy.
func (r *Result) Accuracy(truth []float64, k int) float64 {
	return Accuracy(r.Returned, truth, k)
}

// Run executes a plan against one epoch of ground-truth readings.
func Run(env Env, p *plan.Plan, values []float64) (*Result, error) {
	if env.Net == nil || env.Costs == nil {
		return nil, fmt.Errorf("exec: environment needs a network and costs")
	}
	if len(values) != env.Net.Size() {
		return nil, fmt.Errorf("exec: %d readings for %d nodes", len(values), env.Net.Size())
	}
	if err := p.Validate(env.Net); err != nil {
		return nil, err
	}
	env = env.instrumented()
	var res *Result
	env.em.begin(obs.FStr("plan", p.Kind.String()))
	switch p.Kind {
	case plan.Selection:
		res = runSelection(env, p, values)
	case plan.Filtering:
		res = runFiltering(env, p, values)
	case plan.Proof:
		res = runProof(env, p, values)
	default:
		return nil, fmt.Errorf("exec: unknown plan kind %v", p.Kind)
	}
	env.em.finish(&res.Ledger)
	return res, nil
}

// runSelection moves chosen readings to the root unfiltered.
func runSelection(env Env, p *plan.Plan, values []float64) *Result {
	res := &Result{}
	env.chargeTrigger(&res.Ledger, p)
	net := env.Net
	lists := make([][]ValueAt, net.Size())
	net.PostorderWalk(func(v network.NodeID) {
		var pool []ValueAt
		if p.Chosen != nil && p.Chosen[v] {
			pool = append(pool, ValueAt{Node: v, Val: values[v]})
		}
		for _, c := range net.Children(v) {
			pool = append(pool, lists[c]...)
		}
		if v == network.Root {
			lists[v] = pool
			return
		}
		if len(pool) > 0 {
			env.chargeMsg(&res.Ledger, v, len(pool), 0)
		}
		lists[v] = pool
	})
	returned := append([]ValueAt(nil), lists[network.Root]...)
	returned = append(returned, ValueAt{Node: network.Root, Val: values[network.Root]})
	SortDesc(returned)
	res.Returned = dedupe(returned)
	return res
}

// runFiltering executes a bandwidth plan with local filtering: each
// participating node merges its children's lists with its own reading
// and forwards only its edge's bandwidth worth of top values.
func runFiltering(env Env, p *plan.Plan, values []float64) *Result {
	res := &Result{}
	env.chargeTrigger(&res.Ledger, p)
	net := env.Net
	lists := make([][]ValueAt, net.Size())
	net.PostorderWalk(func(v network.NodeID) {
		participates := v == network.Root || p.UsesEdge(v)
		if !participates {
			return
		}
		var pool []ValueAt
		pool = append(pool, ValueAt{Node: v, Val: values[v]})
		for _, c := range net.Children(v) {
			pool = append(pool, lists[c]...)
		}
		SortDesc(pool)
		if v == network.Root {
			lists[v] = pool
			return
		}
		send := pool
		if len(send) > p.Bandwidth[v] {
			send = send[:p.Bandwidth[v]]
		}
		env.chargeMsg(&res.Ledger, v, len(send), 0)
		lists[v] = send
	})
	res.Returned = dedupe(lists[network.Root])
	return res
}

// dedupe removes duplicate node entries from a rank-sorted list.
func dedupe(vs []ValueAt) []ValueAt {
	seen := make(map[network.NodeID]bool, len(vs))
	out := vs[:0]
	for _, v := range vs {
		if !seen[v.Node] {
			seen[v.Node] = true
			out = append(out, v)
		}
	}
	return out
}
