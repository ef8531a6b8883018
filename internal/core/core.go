// Package core implements the paper's primary contribution: the
// PROSPECTOR family of sampling-based top-k query planners (Greedy,
// LP-LF, LP+LF, PROOF, and the two-phase EXACT algorithm), plus the
// exact baselines they are evaluated against (NAIVE-k, NAIVE-1, ORACLE,
// ORACLE PROOF).
//
// All planners share the same inputs: a spanning-tree network, per-edge
// energy costs, a window of past full-network samples, the rank bound
// k, and an energy budget for one collection phase. They differ in how
// much plan structure they can express — and therefore in how much
// accuracy they extract per joule.
package core

import (
	"fmt"

	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
)

// Config carries the shared planner inputs.
type Config struct {
	Net     *network.Network
	Costs   *plan.Costs
	Samples *sample.Set
	K       int
	// LP tunes the simplex solver for the LP-based planners.
	LP lp.Options
	// DisableRepair turns off the post-rounding budget repair and
	// greedy refill, leaving the paper's plain round-at-1/2 scheme
	// (which may exceed the budget by the rounding slack). Exposed for
	// the rounding ablation.
	DisableRepair bool
	// Obs, when non-nil, receives core.<planner>.* metrics (see obs.go)
	// and is forwarded to the LP solver for the lp.* family.
	Obs *obs.Registry
	// Trace, when non-nil, records one core.plan span per produced plan
	// and is forwarded to the LP solver for lp.solve spans.
	Trace *obs.Tracer
	// Span, when non-nil, parents the core.plan and lp.solve spans.
	Span *obs.Span
}

// lpOptions assembles solver options with the planner registry and
// trace context forwarded.
func (c Config) lpOptions() lp.Options {
	opts := c.LP
	if opts.Obs == nil {
		opts.Obs = c.Obs
	}
	if opts.Trace == nil {
		opts.Trace = c.Trace
	}
	if opts.Span == nil {
		opts.Span = c.Span
	}
	return opts
}

func (c Config) validate() error {
	if c.Net == nil || c.Costs == nil || c.Samples == nil {
		return fmt.Errorf("core: config needs a network, costs, and samples")
	}
	if c.Samples.Nodes() != c.Net.Size() {
		return fmt.Errorf("core: samples cover %d nodes, network has %d", c.Samples.Nodes(), c.Net.Size())
	}
	if c.K < 1 || c.K > c.Net.Size() {
		return fmt.Errorf("core: k must be in [1,%d], got %d", c.Net.Size(), c.K)
	}
	if c.Samples.Len() == 0 {
		return fmt.Errorf("core: sample window is empty")
	}
	// General (marker-based) sample sets report K() == 0 and are
	// accepted: the planners only consume column sums and ones-sets,
	// which the marker defines. K then serves as the expected answer
	// size (bandwidth caps, accuracy denominators).
	if c.Samples.K() != 0 && c.Samples.K() != c.K {
		return fmt.Errorf("core: samples track top-%d, planner wants top-%d", c.Samples.K(), c.K)
	}
	return nil
}

// Planner builds an approximate top-k query plan within an energy
// budget for one collection phase. The LP planners keep their program,
// warm basis and budget frontier across calls, so a Planner is not
// safe for concurrent use: serialize the calls on one planner, or
// build one planner per goroutine.
type Planner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Plan returns a plan whose collection-phase cost respects budget
	// (up to rounding slack when repair is disabled).
	Plan(budget float64) (*plan.Plan, error)
}

// selectionCost returns the collection cost of a Selection plan over
// the chosen node set, sharing per-message costs along common paths.
func selectionCost(cfg Config, chosen []bool) float64 {
	counts := make([]int, cfg.Net.Size())
	for i, c := range chosen {
		if !c || i == int(network.Root) {
			continue
		}
		cfg.Net.AncestorEdges(network.NodeID(i), func(e network.NodeID) {
			counts[e]++
		})
	}
	total := 0.0
	for v := 1; v < cfg.Net.Size(); v++ {
		if counts[v] > 0 {
			total += cfg.Costs.Msg[v] + cfg.Costs.ValueCost(network.NodeID(v), counts[v])
		}
	}
	return total
}

// selectionObjective returns the expected number of top-k hits of a
// chosen-node set over the sample window: the sum of column sums of
// the chosen nodes (plus the root, whose reading is always available).
func selectionObjective(cfg Config, chosen []bool) int {
	hits := cfg.Samples.ColumnSum(int(network.Root))
	for i, c := range chosen {
		if c && i != int(network.Root) {
			hits += cfg.Samples.ColumnSum(i)
		}
	}
	return hits
}

// bandwidthCoverage returns the total number of top-k sample values a
// Filtering plan's bandwidth assignment delivers to the root, summed
// over all samples.
func bandwidthCoverage(cfg Config, bandwidth []int) int {
	pool := make([]int, cfg.Net.Size())
	total := 0
	for j := 0; j < cfg.Samples.Len(); j++ {
		poolWalk(cfg, bandwidth, j, pool)
		total += pool[network.Root]
	}
	return total
}

// poolWalk sets pool[v] to the number of sample j's top-k values in
// node v's pool before v's cap, bottom-up. A node forwards the top of
// its pool, and within its own subtree the sample's top-k values
// outrank everything else, so a child c forwards
// min(pool[c], bandwidth[c]) of them. The root is uncapped: pool[Root]
// is the sample's coverage.
func poolWalk(cfg Config, bandwidth []int, j int, pool []int) {
	net := cfg.Net
	net.PostorderWalk(func(v network.NodeID) {
		n := 0
		if cfg.Samples.IsOne(j, int(v)) {
			n = 1
		}
		for _, c := range net.Children(v) {
			n += min(pool[c], bandwidth[c])
		}
		pool[v] = n
	})
}

// poolTable holds poolWalk's counts for every sample of one bandwidth
// assignment, so the rounding can score a ±1 step at an edge from the
// path above it instead of re-walking the tree for every sample.
type poolTable struct {
	pool []int // sample j's counts are pool[j*n : (j+1)*n] for n nodes
}

// fill recomputes the table for bandwidth.
func (t *poolTable) fill(cfg Config, bandwidth []int) {
	n := cfg.Net.Size()
	if need := cfg.Samples.Len() * n; cap(t.pool) < need {
		t.pool = make([]int, need)
	} else {
		t.pool = t.pool[:need]
	}
	for j := 0; j < cfg.Samples.Len(); j++ {
		poolWalk(cfg, bandwidth, j, t.pool[j*n:(j+1)*n])
	}
}

// moved returns how many samples' coverage changes when bandwidth[v]
// (v not the root) moves by one, up if raise, down otherwise; the
// table must have been filled for bandwidth. Raising lets one more of
// sample j's values past v when pool[v] > bandwidth[v], and that
// value reaches the root when every capped ancestor a forwarded its
// whole pool and has room to spare, pool[a] < bandwidth[a]. Lowering
// is the mirror: pool[v] >= bandwidth[v] at v, and pool[a] <=
// bandwidth[a] on the path, so the lost value was not replaced above.
func (t *poolTable) moved(net *network.Network, bandwidth []int, v network.NodeID, raise bool) int {
	s := 0
	if raise {
		s = 1
	}
	n, count := net.Size(), 0
	for row := 0; row < len(t.pool); row += n {
		u := t.pool[row : row+n]
		if u[v] < bandwidth[v]+s {
			continue
		}
		reaches := true
		for a := net.Parent(v); a != network.Root; a = net.Parent(a) {
			if u[a] > bandwidth[a]-s {
				reaches = false
				break
			}
		}
		if reaches {
			count++
		}
	}
	return count
}

// bandwidthCost returns the collection cost of a Filtering bandwidth
// assignment.
func bandwidthCost(cfg Config, bandwidth []int) float64 {
	total := 0.0
	for v := 1; v < cfg.Net.Size(); v++ {
		if bandwidth[v] > 0 {
			total += cfg.Costs.Msg[v] + cfg.Costs.ValueCost(network.NodeID(v), bandwidth[v])
		}
	}
	return total
}
