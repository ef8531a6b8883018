// Package sim is a discrete-event simulator of a MICA2-style mote
// network executing a collection phase, in the spirit of the paper's
// own evaluation harness ("our own simulator of a network of Crossbow
// MICA2 motes... a generic MAC-layer protocol").
//
// Where internal/exec computes the outcome and energy of a plan
// analytically, sim plays it out over time: the trigger broadcast
// propagates down the tree, leaf nodes transmit first, parents wait for
// their children (with TAG-style slot deadlines), a carrier-sense MAC
// serializes transmissions among interfering radios, lossy links force
// retransmissions, and every radio's energy is metered separately.
// With a loss-free medium its results coincide exactly with
// internal/exec — a property the tests enforce — while additionally
// reporting latency, per-node energy, and retransmission counts.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// Config parameterizes a simulation run.
type Config struct {
	Net   *network.Network
	Model energy.Model
	// ByteRate is the radio throughput in bytes/second (MICA2: ~2400).
	ByteRate float64
	// HeaderBytes is the per-message overhead on the air (preamble,
	// headers, handshake), matching the PerMessage cost in time.
	HeaderBytes int
	// InterferenceRange is the distance within which two simultaneous
	// transmissions collide; 0 disables contention (infinite spatial
	// reuse).
	InterferenceRange float64
	// LossProb[v] is the probability one transmission attempt on the
	// edge above v fails; nil means lossless.
	LossProb []float64
	// MaxRetries bounds retransmissions per message; afterwards the
	// message is dropped (the parent proceeds at its deadline).
	MaxRetries int
	// SlotSeconds is the TAG-style per-level time slot; 0 derives it
	// from the largest possible message duration.
	SlotSeconds float64
	// Rng drives loss draws and contention jitter. Required when
	// LossProb or InterferenceRange are set.
	Rng *rand.Rand
	// Obs, when non-nil, receives sim.* metrics (see obs.go). Nil keeps
	// the event loop free of instrumentation cost.
	Obs *obs.Registry
	// Trace, when non-nil, receives JSON-lines events and spans stamped
	// with the simulated clock.
	Trace *obs.Tracer
	// Span, when non-nil, parents the run's sim.epoch / sim.install
	// span, slotting the simulation into a caller-owned trace tree.
	Span *obs.Span
}

// DefaultConfig returns MICA2-flavored settings for a network.
func DefaultConfig(net *network.Network) Config {
	return Config{
		Net:               net,
		Model:             energy.DefaultModel(),
		ByteRate:          2400,
		HeaderBytes:       26,
		InterferenceRange: 0,
		MaxRetries:        5,
	}
}

// Result reports one simulated collection phase.
type Result struct {
	// Returned holds the values that reached the root, best first.
	Returned []exec.ValueAt
	// Proven counts the root's provable prefix (Proof plans only).
	Proven int
	// Ledger aggregates all energy, as in internal/exec.
	Ledger energy.Ledger
	// NodeEnergy is each node's individual spend (radio TX + RX).
	NodeEnergy []float64
	// Latency is the time from trigger to the root's last reception,
	// in seconds.
	Latency float64
	// Retransmissions counts extra attempts forced by loss.
	Retransmissions int
	// Deferrals counts transmissions postponed by carrier sense.
	Deferrals int
	// Dropped counts messages abandoned after MaxRetries.
	Dropped int
	// Abandoned lists the nodes whose message never got through.
	Abandoned []network.NodeID
	// EdgeAttempts and EdgeFailures count, per edge (indexed by the
	// lower endpoint), transmission attempts and lost attempts — the
	// statistics Section 4.4 feeds back into cost inflation.
	EdgeAttempts, EdgeFailures []int
}

// event is one scheduled occurrence in the simulation.
type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind
	node network.NodeID
}

type eventKind int

const (
	evTrigger  eventKind = iota // node receives the re-execute broadcast
	evTrySend                   // node attempts/retries its unicast to parent
	evDelivery                  // node's message arrives at its parent
	evDeadline                  // node's slot deadline: send what you have
)

// eventQueue is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every pushed and popped event through
// interface{}, putting one heap allocation on every scheduling step of
// the epoch drain; the typed heap keeps the drain allocation-free.
type eventQueue struct{ items []event }

func (q *eventQueue) empty() bool { return len(q.items) == 0 }

func (q *eventQueue) less(i, j int) bool {
	if q.items[i].at != q.items[j].at {
		return q.items[i].at < q.items[j].at
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *eventQueue) push(e event) {
	// The heap grows to the epoch's outstanding-event high-water mark, then is
	// reused.
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		s := l
		if r := l + 1; r < n && q.less(r, l) {
			s = r
		}
		if !q.less(s, i) {
			break
		}
		q.items[i], q.items[s] = q.items[s], q.items[i]
		i = s
	}
	return top
}

// sim is the mutable run state.
type sim struct {
	cfg    Config
	plan   *plan.Plan
	values []float64
	res    *Result

	queue eventQueue
	seq   int
	now   float64

	// Per-node protocol state.
	expected []int // children still awaited
	deadline []float64
	sent     []bool
	gaveUp   []bool
	// lists[v] holds v's received/owned values; the backing storage is
	// carved from listArena with capacity SubtreeSize(v), so pooling
	// appends never grow during the drain.
	lists     [][]exec.ValueAt
	listArena []exec.ValueAt
	// childList[v] is v's delivered payload (aliasing lists[v]'s sorted
	// prefix); childOK[v] marks that the message actually arrived.
	childList [][]exec.ValueAt
	childOK   []bool
	childProv []int
	attempts  []int

	// Medium state: the time each node's neighborhood frees up, and
	// the network's cached interference graph (node v's neighbours are
	// nbAdj[nbOff[v]:nbOff[v+1]]; both nil without contention).
	busyUntil    []float64
	nbOff, nbAdj []int32

	slot float64
	// subHeight[v]: height of the subtree rooted at v.
	subHeight []int

	// em holds pre-resolved metric handles; nil when observability is off.
	em *simObs
	// firstTry[v] is the simulated time of v's first transmission
	// attempt (-1 until it happens); anchors the sim.xfer span.
	firstTry []float64
}

// Run simulates one collection phase of the plan over the epoch's
// ground-truth readings.
func Run(cfg Config, p *plan.Plan, values []float64) (*Result, error) {
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	if len(values) != cfg.Net.Size() {
		return nil, fmt.Errorf("sim: %d readings for %d nodes", len(values), cfg.Net.Size())
	}
	if p.Kind == plan.Selection {
		return nil, fmt.Errorf("sim: selection plans are executed analytically; simulate Filtering or Proof plans")
	}
	s := newSim(cfg, p, values)
	s.run()
	return s.res, nil
}

// validate checks what both phases need of a config and a plan. The
// comparisons are written so NaN fails them.
func (cfg Config) validate(p *plan.Plan) error {
	if cfg.Net == nil {
		return fmt.Errorf("sim: config needs a network")
	}
	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	if err := p.Validate(cfg.Net); err != nil {
		return err
	}
	if !(cfg.ByteRate > 0) || math.IsInf(cfg.ByteRate, 1) {
		return fmt.Errorf("sim: ByteRate must be positive and finite, got %v", cfg.ByteRate)
	}
	if !(cfg.InterferenceRange >= 0) {
		return fmt.Errorf("sim: InterferenceRange must be non-negative, got %v", cfg.InterferenceRange)
	}
	if !(cfg.SlotSeconds >= 0) {
		return fmt.Errorf("sim: SlotSeconds must be non-negative, got %v", cfg.SlotSeconds)
	}
	if cfg.MaxRetries < 0 {
		return fmt.Errorf("sim: MaxRetries must be non-negative, got %d", cfg.MaxRetries)
	}
	if (cfg.LossProb != nil || cfg.InterferenceRange > 0) && cfg.Rng == nil {
		return fmt.Errorf("sim: loss or contention requires an Rng")
	}
	if cfg.LossProb != nil && len(cfg.LossProb) != cfg.Net.Size() {
		return fmt.Errorf("sim: %d loss probabilities for %d nodes", len(cfg.LossProb), cfg.Net.Size())
	}
	for v, q := range cfg.LossProb {
		if !(q >= 0 && q <= 1) {
			return fmt.Errorf("sim: LossProb[%d] = %v is not a probability", v, q)
		}
	}
	return nil
}

func newSim(cfg Config, p *plan.Plan, values []float64) *sim {
	n := cfg.Net.Size()
	s := &sim{
		cfg:    cfg,
		plan:   p,
		values: values,
		res: &Result{
			NodeEnergy:   make([]float64, n),
			EdgeAttempts: make([]int, n),
			EdgeFailures: make([]int, n),
		},
		expected:  make([]int, n),
		deadline:  make([]float64, n),
		sent:      make([]bool, n),
		gaveUp:    make([]bool, n),
		lists:     make([][]exec.ValueAt, n),
		childList: make([][]exec.ValueAt, n),
		childOK:   make([]bool, n),
		childProv: make([]int, n),
		attempts:  make([]int, n),
		busyUntil: make([]float64, n),
		subHeight: make([]int, n),
		em:        newSimObs(cfg.Obs, cfg.Trace, cfg.Net),
		firstTry:  make([]float64, n),
	}
	if s.em != nil {
		s.em.parent = cfg.Span
	}
	for i := range s.firstTry {
		s.firstTry[i] = -1
	}
	net := cfg.Net
	net.PostorderWalk(func(v network.NodeID) {
		h := 0
		for _, c := range net.Children(v) {
			if s.plan.UsesEdge(c) {
				s.expected[v]++
				if s.subHeight[c]+1 > h {
					h = s.subHeight[c] + 1
				}
			}
		}
		s.subHeight[v] = h
	})
	// Pool storage: node v can hold at most its subtree's node count
	// (its own reading plus every delivered child payload), so carving
	// that capacity per node from one arena makes pooling appends
	// growth-free for the whole epoch.
	total := 0
	for v := 0; v < n; v++ {
		total += net.SubtreeSize(network.NodeID(v))
	}
	s.listArena = make([]exec.ValueAt, total)
	off := 0
	for v := 0; v < n; v++ {
		sz := net.SubtreeSize(network.NodeID(v))
		s.lists[v] = s.listArena[off : off : off+sz]
		off += sz
	}
	// Slot: the longest message (subtree-size values) plus margin.
	if cfg.SlotSeconds > 0 {
		s.slot = cfg.SlotSeconds
	} else {
		maxBytes := float64(cfg.HeaderBytes + cfg.Model.BytesPerValue*net.Size())
		s.slot = 2.5 * maxBytes / cfg.ByteRate * float64(1+cfg.MaxRetries)
	}
	if cfg.InterferenceRange > 0 {
		s.nbOff, s.nbAdj = net.Within(cfg.InterferenceRange)
	}
	return s
}

func (s *sim) schedule(at float64, kind eventKind, node network.NodeID) {
	s.seq++
	s.queue.push(event{at: at, seq: s.seq, kind: kind, node: node})
}

// msgDuration returns the airtime of a message carrying nValues plus
// extra bytes.
func (s *sim) msgDuration(nValues, extra int) float64 {
	bytes := s.cfg.HeaderBytes + nValues*s.cfg.Model.BytesPerValue + extra
	return float64(bytes) / s.cfg.ByteRate
}

func (s *sim) run() {
	net := s.cfg.Net
	s.em.begin("sim.epoch",
		obs.FStr("plan", s.plan.Kind.String()),
		obs.FInt("nodes", int64(net.Size())))
	// Trigger propagation: each internal node with participating
	// children rebroadcasts; depth d hears it after d trigger-hops.
	trigDur := s.msgDuration(0, 0) / 2 // broadcasts skip the handshake
	for _, v := range net.Preorder() {
		rebroadcasts := false
		for _, c := range net.Children(v) {
			if s.plan.UsesEdge(c) {
				rebroadcasts = true
				break
			}
		}
		if rebroadcasts {
			s.chargeTrigger(v, float64(net.Depth(v))*trigDur)
		}
	}
	s.seedTriggers()
	s.drain()
	s.finish()
}

// seedTriggers queues the trigger arrival of every participating node:
// depth-d nodes hear the rebroadcast chain after d trigger-hops.
func (s *sim) seedTriggers() {
	net := s.cfg.Net
	trigDur := s.msgDuration(0, 0) / 2
	for _, v := range net.Preorder() {
		if v == network.Root || s.plan.UsesEdge(v) {
			s.schedule(float64(net.Depth(v))*trigDur, evTrigger, v)
		}
	}
}

// drain runs the event loop to exhaustion. This is the per-epoch hot
// path: every handler works in state pre-carved by newSim (the typed
// event heap, the arena-backed value pools, the resolved metric
// handles), so a drained epoch allocates nothing at steady state.
func (s *sim) drain() {
	for !s.queue.empty() {
		e := s.queue.pop()
		s.now = e.at
		switch e.kind {
		case evTrigger:
			s.onTrigger(e.node)
		case evTrySend:
			s.onTrySend(e.node)
		case evDelivery:
			s.onDelivery(e.node)
		case evDeadline:
			s.onDeadline(e.node)
		}
	}
}

// reset re-arms the simulator for another epoch over the same plan and
// values, keeping every buffer's capacity so a warmed simulator can
// replay epochs without allocating.
func (s *sim) reset() {
	s.queue.items = s.queue.items[:0]
	s.seq, s.now = 0, 0
	for i := range s.sent {
		s.expected[i] = 0
		s.deadline[i] = 0
		s.sent[i] = false
		s.gaveUp[i] = false
		s.lists[i] = s.lists[i][:0]
		s.childList[i] = nil
		s.childOK[i] = false
		s.childProv[i] = 0
		s.attempts[i] = 0
		s.busyUntil[i] = 0
		s.firstTry[i] = -1
		s.res.NodeEnergy[i] = 0
		s.res.EdgeAttempts[i] = 0
		s.res.EdgeFailures[i] = 0
	}
	res := s.res
	*res = Result{
		NodeEnergy:   res.NodeEnergy,
		EdgeAttempts: res.EdgeAttempts,
		EdgeFailures: res.EdgeFailures,
	}
	net := s.cfg.Net
	order := net.Preorder()
	for idx := len(order) - 1; idx >= 0; idx-- {
		v := order[idx]
		for _, c := range net.Children(v) {
			if s.plan.UsesEdge(c) {
				s.expected[v]++
			}
		}
	}
}

// chargeTrigger debits one trigger rebroadcast at v, heard at hearAt.
func (s *sim) chargeTrigger(v network.NodeID, hearAt float64) {
	c := s.cfg.Model.Trigger()
	s.res.Ledger.Trigger += c
	s.res.NodeEnergy[v] += c
	s.em.trigger(v, hearAt, c)
}

// chargeLoss debits the sender's TX share of a lost collection unicast;
// the receiver hears nothing and pays nothing.
func (s *sim) chargeLoss(v network.NodeID, cost float64) {
	s.res.NodeEnergy[v] += s.cfg.Model.TxShare(cost)
	s.res.Ledger.Collection += s.cfg.Model.TxShare(cost)
	s.res.Retransmissions++
}

// chargeDelivery debits a delivered collection unicast from v to its
// parent carrying nValues readings.
func (s *sim) chargeDelivery(v, parent network.NodeID, nValues int, cost float64) {
	s.res.NodeEnergy[v] += s.cfg.Model.TxShare(cost)
	s.res.NodeEnergy[parent] += s.cfg.Model.RxShare(cost)
	s.res.Ledger.Collection += cost
	s.res.Ledger.Messages++
	s.res.Ledger.Values += nValues
}

// onTrigger initializes a node: it reads its sensor, arms its deadline,
// and — if it awaits no children — queues its transmission.
func (s *sim) onTrigger(v network.NodeID) {
	// The pool's capacity is pre-carved to the subtree size in newSim; appends
	// never grow.
	s.lists[v] = append(s.lists[v], exec.ValueAt{Node: v, Val: s.values[v]})
	// Deadline: enough slots for the whole subtree below to drain.
	s.deadline[v] = s.now + float64(s.subHeight[v]+1)*s.slot
	if v == network.Root {
		return
	}
	if s.expected[v] == 0 {
		s.schedule(s.now, evTrySend, v)
	} else {
		s.schedule(s.deadline[v], evDeadline, v)
	}
}

// onDeadline forces a node that is still waiting to transmit whatever
// it has (some child messages were dropped).
func (s *sim) onDeadline(v network.NodeID) {
	if s.sent[v] || s.expected[v] == 0 {
		return
	}
	s.em.deadline(v, s.now)
	s.expected[v] = 0
	s.schedule(s.now, evTrySend, v)
}

// onTrySend attempts the node's unicast to its parent, deferring if the
// medium around it is busy and retrying on loss.
func (s *sim) onTrySend(v network.NodeID) {
	if s.sent[v] {
		return
	}
	if s.firstTry[v] < 0 {
		s.firstTry[v] = s.now
	}
	payload, provenCnt := s.outgoing(v)
	extra := 0
	if s.plan.Kind == plan.Proof && len(s.cfg.Net.Children(v)) > 0 && provenCnt < len(payload) {
		extra = 1
	}
	dur := s.msgDuration(len(payload), extra)
	// Carrier sense: defer while the neighborhood is busy.
	if free := s.mediumFreeAt(v); free > s.now {
		s.res.Deferrals++
		jitter := 0.0
		if s.cfg.Rng != nil {
			jitter = s.cfg.Rng.Float64() * dur / 4
		}
		s.em.deferred(v, s.now, free+jitter)
		s.schedule(free+jitter, evTrySend, v)
		return
	}
	s.occupyMedium(v, dur)
	// Energy: every attempt costs the sender its TX share; the
	// receiver pays its RX share only on successful delivery.
	cost := s.cfg.Model.Unicast(len(payload), extra)
	parent := s.cfg.Net.Parent(v)
	s.attempts[v]++
	s.res.EdgeAttempts[v]++
	lost := false
	if s.cfg.LossProb != nil && s.cfg.Rng.Float64() < s.cfg.LossProb[v] {
		lost = true
	}
	if lost {
		s.res.EdgeFailures[v]++
		s.chargeLoss(v, cost)
		s.em.loss(v, v, s.now, s.attempts[v], s.cfg.Model.TxShare(cost))
		if s.attempts[v] > s.cfg.MaxRetries {
			s.res.Dropped++
			s.em.drop(v, s.now)
			s.gaveUp[v] = true
			s.sent[v] = true // stop trying; parent hits its deadline
			return
		}
		s.schedule(s.now+dur*1.5, evTrySend, v)
		return
	}
	s.chargeDelivery(v, parent, len(payload), cost)
	s.em.delivered(v, len(payload), len(payload)*s.cfg.Model.BytesPerValue+extra,
		s.firstTry[v], s.now+dur, s.cfg.Model.TxShare(cost), s.cfg.Model.RxShare(cost))
	s.sent[v] = true
	s.childList[v] = payload
	s.childOK[v] = true
	s.childProv[v] = provenCnt
	s.schedule(s.now+dur, evDelivery, v)
}

// outgoing computes the node's message: its pooled values truncated to
// the edge bandwidth, plus the proven count for proof plans.
func (s *sim) outgoing(v network.NodeID) ([]exec.ValueAt, int) {
	pool := s.lists[v]
	exec.SortDesc(pool)
	send := pool
	if len(send) > s.plan.Bandwidth[v] {
		send = send[:s.plan.Bandwidth[v]]
	}
	provenCnt := 0
	if s.plan.Kind == plan.Proof {
		provenCnt = s.provenPrefix(v, send)
	}
	// The payload aliases the node's pooled list instead of copying:
	// outgoing runs only until the node's send succeeds, so the prefix
	// is never re-sorted afterwards, and straggler deliveries append
	// past it without disturbing it (capacity is pre-carved, so the
	// append cannot move the backing array either).
	return send, provenCnt
}

// onDelivery merges an arrived message into the parent and may release
// the parent's own transmission.
func (s *sim) onDelivery(v network.NodeID) {
	parent := s.cfg.Net.Parent(v)
	// The pool's capacity is pre-carved to the subtree size in newSim; appends
	// never grow.
	s.lists[parent] = append(s.lists[parent], s.childList[v]...)
	if parent == network.Root {
		if s.now > s.res.Latency {
			s.res.Latency = s.now
		}
	}
	s.expected[parent]--
	if s.expected[parent] == 0 && parent != network.Root && !s.sent[parent] {
		s.schedule(s.now, evTrySend, parent)
	}
}

// mediumFreeAt returns when node v's neighborhood is next idle.
func (s *sim) mediumFreeAt(v network.NodeID) float64 {
	free := s.busyUntil[v]
	for _, nb := range s.neighborsOf(v) {
		if s.busyUntil[nb] > free {
			free = s.busyUntil[nb]
		}
	}
	return free
}

func (s *sim) occupyMedium(v network.NodeID, dur float64) {
	end := s.now + dur
	if end > s.busyUntil[v] {
		s.busyUntil[v] = end
	}
	for _, nb := range s.neighborsOf(v) {
		if end > s.busyUntil[nb] {
			s.busyUntil[nb] = end
		}
	}
}

func (s *sim) neighborsOf(v network.NodeID) []int32 {
	if s.nbOff == nil {
		return nil
	}
	return s.nbAdj[s.nbOff[v]:s.nbOff[v+1]]
}

// provenPrefix mirrors the proof conditions of internal/exec over the
// simulator's per-child state.
func (s *sim) provenPrefix(v network.NodeID, list []exec.ValueAt) int {
	n := 0
	for _, w := range list {
		if !s.provenAt(v, w) {
			break
		}
		n++
	}
	return n
}

func (s *sim) provenAt(v network.NodeID, w exec.ValueAt) bool {
	net := s.cfg.Net
	for _, c := range net.Children(v) {
		if !s.plan.UsesEdge(c) {
			return false // proof plans use all edges; unused => undelivered
		}
		if !s.childOK[c] {
			return false // child's message never arrived
		}
		lst := s.childList[c]
		if len(lst) == net.SubtreeSize(c) {
			continue // (c.3)
		}
		if net.IsAncestor(c, w.Node) {
			proven := s.childProv[c]
			found := false
			for i := 0; i < proven && i < len(lst); i++ {
				if lst[i].Node == w.Node {
					found = true
					break
				}
			}
			if found {
				continue // (c.1)
			}
			return false
		}
		if p := s.childProv[c]; p > 0 && w.Outranks(lst[p-1]) {
			continue // (c.2)
		}
		return false
	}
	return true
}

// finish assembles the root's answer.
func (s *sim) finish() {
	root := s.lists[network.Root]
	exec.SortDesc(root)
	seen := make(map[network.NodeID]bool, len(root))
	var out []exec.ValueAt
	for _, v := range root {
		if !seen[v.Node] {
			seen[v.Node] = true
			out = append(out, v)
		}
	}
	s.res.Returned = out
	for i, g := range s.gaveUp {
		if g {
			s.res.Abandoned = append(s.res.Abandoned, network.NodeID(i))
		}
	}
	if s.plan.Kind == plan.Proof {
		s.res.Proven = s.provenPrefix(network.Root, out)
	}
	sort.SliceStable(s.res.Returned, func(i, j int) bool {
		return s.res.Returned[i].Outranks(s.res.Returned[j])
	})
	s.em.finish(s.res.Latency, &s.res.Ledger)
}

// EstimateLossProbs aggregates per-edge failure statistics from a set
// of simulated collection phases into empirical loss probabilities:
// the inputs Section 4.4's cost inflation wants. Edges never attempted
// report probability zero.
func EstimateLossProbs(results []*Result, n int) ([]float64, error) {
	attempts := make([]int, n)
	failures := make([]int, n)
	for _, r := range results {
		if len(r.EdgeAttempts) != n || len(r.EdgeFailures) != n {
			return nil, fmt.Errorf("sim: result covers %d edges, want %d", len(r.EdgeAttempts), n)
		}
		for v := 0; v < n; v++ {
			attempts[v] += r.EdgeAttempts[v]
			failures[v] += r.EdgeFailures[v]
		}
	}
	probs := make([]float64, n)
	for v := 0; v < n; v++ {
		if attempts[v] > 0 {
			probs[v] = float64(failures[v]) / float64(attempts[v])
		}
	}
	return probs, nil
}
