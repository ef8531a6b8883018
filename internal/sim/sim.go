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
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

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

// event is one scheduled occurrence: a trigger arrival, a slot
// deadline, a send attempt or a delivery. Sequence numbers are unique,
// so (at, seq) orders events totally.
type event struct {
	at   float64
	seq  uint64 // tie-break for determinism
	node int32
	kind eventKind
}

type eventKind uint8

const (
	evTrigger  eventKind = iota // node receives the re-execute broadcast
	evTrySend                   // node attempts/retries its unicast to parent
	evDelivery                  // node's message arrives at its parent
	evDeadline                  // node's slot deadline: send what you have
)

// before reports whether a is handled before b.
func (a event) before(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every pushed and popped event through
// interface{}, putting one heap allocation on every scheduling step of
// the epoch drain; the typed heap keeps the drain allocation-free.
type eventQueue struct{ items []event }

func (q *eventQueue) empty() bool { return len(q.items) == 0 }

func (q *eventQueue) less(i, j int) bool { return q.items[i].before(q.items[j]) }

func (q *eventQueue) push(e event) {
	// A node has at most one queued event at a time, so a queue carved
	// with room for every participant never grows.
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

// node is one mote's protocol state for a run. It holds no pointer:
// the node's value pool is an offset into the run's arena, so the whole
// block is one allocation the garbage collector never scans.
type node struct {
	busyUntil float64 // when the medium around the node next frees up
	// firstTry is the simulated time of the node's first transmission
	// attempt (valid once flagTried is set); anchors the sim.xfer and
	// sim.bundle spans.
	firstTry float64
	pool     int    // the value pool's offset into the arena
	pooled   int32  // values in the pool
	payload  int32  // the sent message: the pool's sorted prefix this long
	proven   int32  // the payload's proven prefix (Proof plans)
	expected int32  // children still awaited
	attempts int32  // transmission attempts on the edge above
	height   int32  // height of the node's subtree of used edges
	dseq     uint64 // the slot deadline's sequence number; 0 until armed
	flags    uint8
}

const (
	flagSent      uint8 = 1 << iota // done sending: got through, or gave up
	flagGaveUp                      // the message was dropped after MaxRetries
	flagInstalled                   // the node's plan bundle arrived
	flagTried                       // firstTry is set
)

// settled reports whether the node's slot deadline would do nothing: it
// has sent, or awaits no child. Both hold until the deadline once they
// hold, since every used child delivers at most once.
func (nd *node) settled() bool { return nd.flags&flagSent != 0 || nd.expected == 0 }

// sim is the mutable run state.
type sim struct {
	cfg    Config
	plan   *plan.Plan
	values []float64
	res    *Result
	// em holds pre-resolved metric handles; nil when observability is off.
	em *simObs

	nodes []node
	// vals is the value arena: node v's pool is nodes[v].pooled long at
	// vals[nodes[v].pool:], with room for the node's own reading and the
	// most every used child edge can carry, so pooling never grows it.
	vals []exec.ValueAt

	// The pending events are three streams that drain merges in
	// (at, seq) order: queue holds send attempts and deliveries, trig
	// every trigger arrival, sorted by newSim, and dl every slot
	// deadline, sorted by seedTriggers; the drain consumes trig and dl
	// from the cursors ti, di.
	queue  eventQueue
	trig   []event
	dl     []event
	ti, di int
	seq    uint64
	now    float64

	slot float64
	// The network's cached interference graph: node v's neighbours are
	// nbAdj[nbOff[v]:nbOff[v+1]]; both nil without contention.
	nbOff, nbAdj []int32
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
	if cfg.HeaderBytes < 0 {
		// A negative header would run the clock backwards: a slot
		// deadline could fall before the trigger that arms it.
		return fmt.Errorf("sim: HeaderBytes must be non-negative, got %d", cfg.HeaderBytes)
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

// newState allocates what both phases use: the node-state block and the
// Result. The phases add their own event storage.
func newState(cfg Config, p *plan.Plan) *sim {
	n := cfg.Net.Size()
	edges := make([]int, 2*n)
	s := &sim{
		cfg:   cfg,
		plan:  p,
		nodes: make([]node, n),
		res: &Result{
			NodeEnergy:   make([]float64, n),
			EdgeAttempts: edges[:n:n],
			EdgeFailures: edges[n:],
		},
		em: newSimObs(cfg.Obs, cfg.Trace, cfg.Net),
	}
	if s.em != nil {
		s.em.parent = cfg.Span
	}
	if cfg.InterferenceRange > 0 {
		s.nbOff, s.nbAdj = cfg.Net.Within(cfg.InterferenceRange)
	}
	return s
}

// newSim builds a collection run. Besides the Result it allocates three
// blocks: the node states, the value arena, and the event storage. The
// storage holds the queue, with room for one event per participant (a
// node never has two queued), then the trigger and deadline streams.
// Both streams are known before the first event: a node hears the
// trigger after depth trigger-hops, and its slot deadline falls a fixed
// number of slots after that. So they stay out of the queue, which
// holds only the send attempts and deliveries in flight.
func newSim(cfg Config, p *plan.Plan, values []float64) *sim {
	s := newState(cfg, p)
	s.values = values
	net := cfg.Net
	n := net.Size()
	order := net.Preorder()
	// The used tree, leaves first: each node's used child edges, the
	// height of its used subtree, and its pool's room (its own reading
	// plus the bandwidth of every used child edge) for participants.
	trigs, deadlines, room := 0, 0, 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		nd := &s.nodes[v]
		width := 1
		for _, c := range net.Children(v) {
			if p.UsesEdge(c) {
				nd.expected++
				nd.height = max(nd.height, s.nodes[c].height+1)
				width += p.Bandwidth[c]
			}
		}
		if v == network.Root || p.UsesEdge(v) {
			trigs++
			if v != network.Root && nd.expected > 0 {
				deadlines++
			}
			nd.pool = room
			room += width
		}
	}
	s.vals = make([]exec.ValueAt, room)
	// Slot: the longest message (subtree-size values) plus margin.
	if cfg.SlotSeconds > 0 {
		s.slot = cfg.SlotSeconds
	} else {
		maxBytes := float64(cfg.HeaderBytes + cfg.Model.BytesPerValue*n)
		s.slot = 2.5 * maxBytes / cfg.ByteRate * float64(1+cfg.MaxRetries)
	}
	block := make([]event, 2*trigs+deadlines)
	s.queue.items = block[:0:trigs]
	s.trig = block[trigs : 2*trigs : 2*trigs]
	s.dl = block[2*trigs : 2*trigs : 2*trigs+deadlines]
	s.sortTriggers()
	return s
}

// sortTriggers fills the trigger stream with every participant's
// trigger arrival, at depth trigger-hops, in the order one queue holding
// them all handles them: by time, then by place in preorder, the order
// they were queued in. The stream's seqs are then 1..T.
func (s *sim) sortTriggers() {
	net := s.cfg.Net
	trigDur := s.msgDuration(0, 0) / 2 // broadcasts skip the handshake
	k := 0
	for _, v := range net.Preorder() {
		if v == network.Root || s.plan.UsesEdge(v) {
			s.trig[k] = event{at: float64(net.Depth(v)) * trigDur, node: int32(v), kind: evTrigger}
			k++
		}
	}
	slices.SortStableFunc(s.trig, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	for i := range s.trig {
		s.trig[i].seq = uint64(i + 1)
	}
}

func (s *sim) schedule(at float64, kind eventKind, v network.NodeID) {
	s.seq++
	s.queue.push(event{at: at, seq: s.seq, node: int32(v), kind: kind})
}

// msgDuration returns the airtime of a message carrying nValues plus
// extra bytes.
func (s *sim) msgDuration(nValues, extra int) float64 {
	bytes := s.cfg.HeaderBytes + nValues*s.cfg.Model.BytesPerValue + extra
	return float64(bytes) / s.cfg.ByteRate
}

func (s *sim) run() {
	net := s.cfg.Net
	if s.em != nil {
		s.em.begin("sim.epoch",
			obs.FStr("plan", s.plan.Kind.String()),
			obs.FInt("nodes", int64(net.Size())))
	}
	// Trigger propagation: each internal node with participating
	// children rebroadcasts; depth d hears it after d trigger-hops.
	trigDur := s.msgDuration(0, 0) / 2 // broadcasts skip the handshake
	for _, v := range net.Preorder() {
		if s.nodes[v].expected > 0 {
			s.chargeTrigger(v, float64(net.Depth(v))*trigDur)
		}
	}
	s.seedTriggers()
	s.drain()
	s.finish()
}

// seedTriggers arms the trigger and deadline streams. The triggers hold
// sequence numbers 1..T, as if queued in stream order, so everything
// scheduled during the drain follows them. Every node awaiting children
// has a slot deadline a fixed number of slots after its trigger; a
// deadline takes its seq when that trigger fires, so deadlines at one
// instant keep their triggers' order, which the sort by trigger seq
// gives the stream.
func (s *sim) seedTriggers() {
	s.ti, s.seq = 0, uint64(len(s.trig))
	s.dl, s.di = s.dl[:0], 0
	for _, e := range s.trig {
		if nd := &s.nodes[e.node]; e.node != int32(network.Root) && nd.expected > 0 {
			at := e.at + float64(nd.height+1)*s.slot
			s.dl = append(s.dl, event{at: at, seq: e.seq, node: e.node, kind: evDeadline})
		}
	}
	slices.SortFunc(s.dl, func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// drain runs the event loop to exhaustion. This is the per-epoch hot
// path. It handles events in exactly (at, seq) order, merging the
// queue with the trigger and deadline streams: the same order, and so
// the same RNG draws and float sums, as one heap holding every event.
// Every handler works in state newSim pre-carved (the node block, the
// value arena, the event storage, the resolved metric handles), so a
// drained epoch allocates nothing.
func (s *sim) drain() {
	for {
		var e event
		found := !s.queue.empty()
		if found {
			e = s.queue.items[0]
		}
		if s.ti < len(s.trig) && (!found || s.trig[s.ti].before(e)) {
			e, found = s.trig[s.ti], true
		}
		// A deadline whose node has settled would do nothing; skip it.
		for s.di < len(s.dl) && s.nodes[s.dl[s.di].node].settled() {
			s.di++
		}
		// A deadline is armed, and takes its seq, when its node's trigger
		// fires. Until then that trigger is pending and comes first.
		if s.di < len(s.dl) {
			if d := s.dl[s.di]; s.nodes[d.node].dseq != 0 {
				d.seq = s.nodes[d.node].dseq
				if !found || d.before(e) {
					e, found = d, true
				}
			}
		}
		if !found {
			return
		}
		s.now = e.at
		v := network.NodeID(e.node)
		switch e.kind {
		case evTrigger:
			s.ti++
			s.onTrigger(v)
		case evDeadline:
			s.di++
			s.onDeadline(v)
		case evTrySend:
			s.queue.pop()
			s.onTrySend(v)
		case evDelivery:
			s.queue.pop()
			s.onDelivery(v)
		}
	}
}

// reset re-arms the simulator for another epoch over the same plan and
// values, keeping every buffer so a warmed simulator can replay epochs
// without allocating.
func (s *sim) reset() {
	s.queue.items = s.queue.items[:0]
	s.seq, s.now = 0, 0
	for i := range s.nodes {
		nd := &s.nodes[i]
		nd.busyUntil, nd.firstTry = 0, 0
		nd.pooled, nd.payload, nd.proven, nd.attempts = 0, 0, 0, 0
		nd.expected, nd.dseq, nd.flags = 0, 0, 0
		s.res.NodeEnergy[i] = 0
		s.res.EdgeAttempts[i] = 0
		s.res.EdgeFailures[i] = 0
	}
	for i := range s.nodes {
		if v := network.NodeID(i); s.plan.UsesEdge(v) {
			s.nodes[s.cfg.Net.Parent(v)].expected++
		}
	}
	res := s.res
	*res = Result{
		NodeEnergy:   res.NodeEnergy,
		EdgeAttempts: res.EdgeAttempts,
		EdgeFailures: res.EdgeFailures,
	}
}

// pool returns node v's pooled values.
func (s *sim) pool(v network.NodeID) []exec.ValueAt {
	nd := &s.nodes[v]
	return s.vals[nd.pool : nd.pool+int(nd.pooled)]
}

// payload returns the message node v sent: its pool's sorted prefix.
func (s *sim) payload(v network.NodeID) []exec.ValueAt {
	nd := &s.nodes[v]
	return s.vals[nd.pool : nd.pool+int(nd.payload)]
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
	nd := &s.nodes[v]
	s.vals[nd.pool+int(nd.pooled)] = exec.ValueAt{Node: v, Val: s.values[v]}
	nd.pooled++
	if v == network.Root {
		return
	}
	if nd.expected == 0 {
		s.schedule(s.now, evTrySend, v)
	} else {
		// The deadline already sits in its stream; arming it gives it
		// the seq a queued deadline would take now.
		s.seq++
		nd.dseq = s.seq
	}
}

// onDeadline forces a node that is still waiting to transmit whatever
// it has (some child messages were dropped). drain skips the deadlines
// of settled nodes, so v is still waiting.
func (s *sim) onDeadline(v network.NodeID) {
	s.em.deadline(v, s.now)
	s.nodes[v].expected = 0
	s.schedule(s.now, evTrySend, v)
}

// onTrySend attempts the node's unicast to its parent, deferring if the
// medium around it is busy and retrying on loss.
func (s *sim) onTrySend(v network.NodeID) {
	nd := &s.nodes[v]
	if nd.flags&flagSent != 0 {
		return
	}
	if nd.flags&flagTried == 0 {
		nd.flags |= flagTried
		nd.firstTry = s.now
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
	nd.attempts++
	s.res.EdgeAttempts[v]++
	if s.cfg.LossProb != nil && s.cfg.Rng.Float64() < s.cfg.LossProb[v] {
		s.res.EdgeFailures[v]++
		s.chargeLoss(v, cost)
		s.em.loss(v, v, s.now, int(nd.attempts), s.cfg.Model.TxShare(cost))
		if int(nd.attempts) > s.cfg.MaxRetries {
			s.res.Dropped++
			s.em.drop(v, s.now)
			nd.flags |= flagSent | flagGaveUp // stop trying; parent hits its deadline
			return
		}
		s.schedule(s.now+dur*1.5, evTrySend, v)
		return
	}
	s.chargeDelivery(v, parent, len(payload), cost)
	s.em.delivered(v, len(payload), len(payload)*s.cfg.Model.BytesPerValue+extra,
		nd.firstTry, s.now+dur, s.cfg.Model.TxShare(cost), s.cfg.Model.RxShare(cost))
	nd.flags |= flagSent
	nd.payload = int32(len(payload))
	nd.proven = int32(provenCnt)
	s.schedule(s.now+dur, evDelivery, v)
}

// outgoing computes the node's message: its pooled values truncated to
// the edge bandwidth, plus the proven count for proof plans.
func (s *sim) outgoing(v network.NodeID) ([]exec.ValueAt, int) {
	send := s.pool(v)
	exec.SortDesc(send)
	if len(send) > s.plan.Bandwidth[v] {
		send = send[:s.plan.Bandwidth[v]]
	}
	provenCnt := 0
	if s.plan.Kind == plan.Proof {
		provenCnt = s.provenPrefix(v, send)
	}
	// The payload is the pool's prefix, not a copy: outgoing runs only
	// until the node's send succeeds, so the prefix is never re-sorted
	// afterwards, and straggler deliveries pool past it without
	// disturbing it.
	return send, provenCnt
}

// onDelivery merges an arrived message into the parent and may release
// the parent's own transmission.
func (s *sim) onDelivery(v network.NodeID) {
	parent := s.cfg.Net.Parent(v)
	pd := &s.nodes[parent]
	// The parent's pool has room for every used child edge's bandwidth.
	pd.pooled += int32(copy(s.vals[pd.pool+int(pd.pooled):], s.payload(v)))
	if parent == network.Root {
		if s.now > s.res.Latency {
			s.res.Latency = s.now
		}
	}
	pd.expected--
	if pd.expected == 0 && parent != network.Root && pd.flags&flagSent == 0 {
		s.schedule(s.now, evTrySend, parent)
	}
}

// mediumFreeAt returns when node v's neighborhood is next idle.
func (s *sim) mediumFreeAt(v network.NodeID) float64 {
	free := s.nodes[v].busyUntil
	for _, nb := range s.neighborsOf(v) {
		if s.nodes[nb].busyUntil > free {
			free = s.nodes[nb].busyUntil
		}
	}
	return free
}

func (s *sim) occupyMedium(v network.NodeID, dur float64) {
	end := s.now + dur
	if end > s.nodes[v].busyUntil {
		s.nodes[v].busyUntil = end
	}
	for _, nb := range s.neighborsOf(v) {
		if end > s.nodes[nb].busyUntil {
			s.nodes[nb].busyUntil = end
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
		if s.nodes[c].flags&(flagSent|flagGaveUp) != flagSent {
			return false // child's message never got through
		}
		lst := s.payload(c)
		if len(lst) == net.SubtreeSize(c) {
			continue // (c.3)
		}
		proven := int(s.nodes[c].proven)
		if net.IsAncestor(c, w.Node) {
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
		if proven > 0 && w.Outranks(lst[proven-1]) {
			continue // (c.2)
		}
		return false
	}
	return true
}

// finish assembles the root's answer.
func (s *sim) finish() {
	root := s.pool(network.Root)
	exec.SortDesc(root)
	// Sorted, a node's copies (all equal) sit next to each other, so
	// comparing with the last kept value dedupes and keeps the order.
	out := make([]exec.ValueAt, 0, len(root))
	for _, v := range root {
		if len(out) == 0 || out[len(out)-1].Node != v.Node {
			out = append(out, v)
		}
	}
	s.res.Returned = out
	for i := range s.nodes {
		if s.nodes[i].flags&flagGaveUp != 0 {
			s.res.Abandoned = append(s.res.Abandoned, network.NodeID(i))
		}
	}
	if s.plan.Kind == plan.Proof {
		s.res.Proven = s.provenPrefix(network.Root, out)
	}
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
