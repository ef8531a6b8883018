// Package network models a wireless sensor network organized as a
// spanning tree rooted at a query station, as in Section 2 of the
// paper. Nodes are placed in a rectangular space; links exist between
// nodes within radio range; the spanning tree keeps each node as few
// hops from the root as possible.
package network

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node in a network. The root always has ID 0.
type NodeID int

// Root is the NodeID of the root (query station).
const Root NodeID = 0

// Point is a position in the deployment rectangle, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Network is an immutable spanning tree over a set of sensor nodes.
// Build one with New or one of the builders in topology.go, then share
// it freely: all methods are safe for concurrent use.
type Network struct {
	pos      []Point
	parent   []NodeID // parent[Root] == Root
	children [][]NodeID
	depth    []int      // hops from root; depth[Root] == 0
	desc     [][]NodeID // descendants including self, preorder
	subSize  []int      // len(desc[i])
	order    []NodeID   // preorder walk from the root
	height   int
	// within caches the last range's interference graph (see Within).
	within atomic.Pointer[withinGraph]
}

// withinGraph is the interference graph of one range in compressed
// sparse row form: node i's neighbours are adj[off[i]:off[i+1]].
type withinGraph struct {
	r        float64
	off, adj []int32
}

// New assembles a Network from an explicit parent vector. parent[0]
// must be 0 (the root is its own parent) and the parent links must form
// a tree over nodes 0..len(parent)-1. pos may be nil, in which case all
// positions are the origin.
func New(parent []NodeID, pos []Point) (*Network, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("network: empty parent vector")
	}
	if parent[Root] != Root {
		return nil, fmt.Errorf("network: root must be its own parent, got parent[0]=%d", parent[Root])
	}
	if pos == nil {
		pos = make([]Point, n)
	}
	if len(pos) != n {
		return nil, fmt.Errorf("network: %d positions for %d nodes", len(pos), n)
	}
	net := &Network{
		pos:      append([]Point(nil), pos...),
		parent:   append([]NodeID(nil), parent...),
		children: make([][]NodeID, n),
		depth:    make([]int, n),
	}
	for i := 1; i < n; i++ {
		p := parent[i]
		if p < 0 || int(p) >= n || p == NodeID(i) {
			return nil, fmt.Errorf("network: node %d has invalid parent %d", i, p)
		}
		net.children[p] = append(net.children[p], NodeID(i))
	}
	// Depths via a walk from the root; also detects disconnected nodes
	// and cycles (they are never reached).
	net.order = make([]NodeID, 0, n)
	stack := []NodeID{Root}
	seen := make([]bool, n)
	seen[Root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		net.order = append(net.order, v)
		for _, c := range net.children[v] {
			if seen[c] {
				return nil, fmt.Errorf("network: node %d reached twice; parent links are not a tree", c)
			}
			seen[c] = true
			net.depth[c] = net.depth[v] + 1
			if net.depth[c] > net.height {
				net.height = net.depth[c]
			}
			stack = append(stack, c)
		}
	}
	if len(net.order) != n {
		return nil, fmt.Errorf("network: %d of %d nodes unreachable from root", n-len(net.order), n)
	}
	net.buildDescendants()
	return net, nil
}

func (net *Network) buildDescendants() {
	n := net.Size()
	net.desc = make([][]NodeID, n)
	net.subSize = make([]int, n)
	// Children were appended in ID order; walk in reverse preorder so
	// every child is finished before its parent.
	for idx := len(net.order) - 1; idx >= 0; idx-- {
		v := net.order[idx]
		d := []NodeID{v}
		for _, c := range net.children[v] {
			d = append(d, net.desc[c]...)
		}
		net.desc[v] = d
		net.subSize[v] = len(d)
	}
}

// Size returns the number of nodes, including the root.
func (net *Network) Size() int { return len(net.parent) }

// Height returns the maximum depth of any node.
func (net *Network) Height() int { return net.height }

// Parent returns the parent of v. The root is its own parent.
func (net *Network) Parent(v NodeID) NodeID { return net.parent[v] }

// Children returns v's children. The caller must not modify the result.
func (net *Network) Children(v NodeID) []NodeID { return net.children[v] }

// Depth returns the number of hops between v and the root.
func (net *Network) Depth(v NodeID) int { return net.depth[v] }

// Pos returns v's position in the deployment rectangle.
func (net *Network) Pos(v NodeID) Point { return net.pos[v] }

// SubtreeSize returns the number of nodes in the subtree rooted at v,
// including v itself.
func (net *Network) SubtreeSize(v NodeID) int { return net.subSize[v] }

// Descendants returns the nodes of the subtree rooted at v, including v
// itself, in preorder. The caller must not modify the result.
func (net *Network) Descendants(v NodeID) []NodeID { return net.desc[v] }

// Preorder returns every node in preorder from the root. The caller
// must not modify the result.
func (net *Network) Preorder() []NodeID { return net.order }

// PostorderWalk calls f on every node, children before parents.
func (net *Network) PostorderWalk(f func(NodeID)) {
	for i := len(net.order) - 1; i >= 0; i-- {
		f(net.order[i])
	}
}

// Ancestors returns the chain from v up to and including the root,
// excluding v itself. Allocates; prefer AncestorEdges in hot paths.
func (net *Network) Ancestors(v NodeID) []NodeID {
	var out []NodeID
	for v != Root {
		v = net.parent[v]
		out = append(out, v)
	}
	return out
}

// AncestorEdges calls f with the lower endpoint of every edge on the
// path from v to the root: first v itself, then each ancestor below the
// root. (The edge above node u is identified by u; the root has no edge.)
func (net *Network) AncestorEdges(v NodeID, f func(NodeID)) {
	for v != Root {
		f(v)
		v = net.parent[v]
	}
}

// IsAncestor reports whether a is an ancestor of v or v itself.
func (net *Network) IsAncestor(a, v NodeID) bool {
	for {
		if v == a {
			return true
		}
		if v == Root {
			return false
		}
		v = net.parent[v]
	}
}

// OnPathChild returns the child of ancestor a that lies on the path
// from a down to v. It panics if a is not a proper ancestor of v.
func (net *Network) OnPathChild(a, v NodeID) NodeID {
	if a == v {
		panic("network: OnPathChild called with a == v")
	}
	for net.parent[v] != a {
		if v == Root {
			panic(fmt.Sprintf("network: %d is not an ancestor of the argument", a))
		}
		v = net.parent[v]
	}
	return v
}

// Leaves returns all nodes without children in increasing ID order.
func (net *Network) Leaves() []NodeID {
	var out []NodeID
	for i := 0; i < net.Size(); i++ {
		if len(net.children[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// MaxFanout returns the largest number of children of any node.
func (net *Network) MaxFanout() int {
	m := 0
	for _, cs := range net.children {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return m
}

// String summarizes the topology.
func (net *Network) String() string {
	return fmt.Sprintf("network{nodes=%d height=%d leaves=%d maxFanout=%d}",
		net.Size(), net.Height(), len(net.Leaves()), net.MaxFanout())
}

// Within returns the graph of nodes within distance r of each other,
// in compressed sparse row form: node i's neighbours — every j != i
// with Pos(i).Dist(Pos(j)) <= r — are adj[off[i]:off[i+1]], in
// ascending order. The deployment never moves, so the graph is built
// once per range and cached (the most recent range only); the caller
// must not modify the result.
func (net *Network) Within(r float64) (off, adj []int32) {
	if g := net.within.Load(); g != nil && g.r == r {
		return g.off, g.adj
	}
	g := net.buildWithin(r)
	net.within.Store(g)
	return g.off, g.adj
}

// buildWithin scans every unordered pair once to count degrees, then
// again to fill the exact-sized adjacency. Dist is symmetric bit for
// bit (Hypot takes absolute values), so one evaluation decides both
// directions; filling row by row in ascending i keeps every list
// ascending.
func (net *Network) buildWithin(r float64) *withinGraph {
	n := net.Size()
	near := func(i, j int) bool { return net.pos[i].Dist(net.pos[j]) <= r }
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if near(i, j) {
				off[i+1]++
				off[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]int32, off[n])
	next := append([]int32(nil), off[:n]...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if near(i, j) {
				adj[next[i]] = int32(j)
				next[i]++
				adj[next[j]] = int32(i)
				next[j]++
			}
		}
	}
	return &withinGraph{r: r, off: off, adj: adj}
}

// SortedByDepth returns all node IDs ordered by increasing depth,
// breaking ties by ID. Useful for deterministic iteration.
func (net *Network) SortedByDepth() []NodeID {
	out := append([]NodeID(nil), net.order...)
	sort.Slice(out, func(i, j int) bool {
		if net.depth[out[i]] != net.depth[out[j]] {
			return net.depth[out[i]] < net.depth[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
