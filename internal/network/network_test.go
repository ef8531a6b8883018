package network

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name   string
		parent []NodeID
	}{
		{"empty", nil},
		{"root not self-parent", []NodeID{1, 0}},
		{"parent out of range", []NodeID{0, 5}},
		{"self loop", []NodeID{0, 1}},
		{"cycle", []NodeID{0, 2, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.parent, nil); err == nil {
				t.Errorf("New(%v) accepted invalid input", c.parent)
			}
		})
	}
}

func TestLineTopology(t *testing.T) {
	net := Line(5)
	if net.Size() != 5 || net.Height() != 4 {
		t.Fatalf("line(5): size=%d height=%d", net.Size(), net.Height())
	}
	for i := 1; i < 5; i++ {
		if net.Parent(NodeID(i)) != NodeID(i-1) {
			t.Errorf("parent(%d) = %d", i, net.Parent(NodeID(i)))
		}
		if net.Depth(NodeID(i)) != i {
			t.Errorf("depth(%d) = %d", i, net.Depth(NodeID(i)))
		}
	}
	if got := net.SubtreeSize(2); got != 3 {
		t.Errorf("subtree(2) = %d, want 3", got)
	}
	if !net.IsAncestor(1, 4) || net.IsAncestor(4, 1) {
		t.Error("IsAncestor wrong on the chain")
	}
	if c := net.OnPathChild(0, 4); c != 1 {
		t.Errorf("OnPathChild(0,4) = %d, want 1", c)
	}
}

func TestStarTopology(t *testing.T) {
	net := Star(6)
	if net.Height() != 1 {
		t.Fatalf("star height = %d", net.Height())
	}
	if got := len(net.Children(Root)); got != 5 {
		t.Errorf("root has %d children, want 5", got)
	}
	if got := len(net.Leaves()); got != 5 {
		t.Errorf("%d leaves, want 5", got)
	}
	if net.MaxFanout() != 5 {
		t.Errorf("max fanout = %d", net.MaxFanout())
	}
}

func TestBalancedTree(t *testing.T) {
	net := BalancedTree(2, 3)
	if net.Size() != 15 {
		t.Fatalf("size = %d, want 15", net.Size())
	}
	if net.Height() != 3 {
		t.Errorf("height = %d, want 3", net.Height())
	}
	if got := net.SubtreeSize(Root); got != 15 {
		t.Errorf("root subtree = %d", got)
	}
	for _, v := range net.Preorder() {
		want := 1
		for _, c := range net.Children(v) {
			want += net.SubtreeSize(c)
		}
		if net.SubtreeSize(v) != want {
			t.Errorf("subtree(%d) = %d, want %d", v, net.SubtreeSize(v), want)
		}
	}
}

func TestBuildConnects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		net, err := Build(DefaultBuildConfig(80), rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if net.Size() != 80 {
			t.Fatalf("trial %d: size %d", trial, net.Size())
		}
		if net.Height() < 2 {
			t.Errorf("trial %d: degenerate height %d", trial, net.Height())
		}
		// Every non-root node within radio range of its parent (modulo
		// the re-placement fallback, which also respects range).
		cfg := DefaultBuildConfig(80)
		for i := 1; i < net.Size(); i++ {
			d := net.Pos(NodeID(i)).Dist(net.Pos(net.Parent(NodeID(i))))
			if d > cfg.Range+1e-9 {
				t.Errorf("trial %d: node %d is %.1f m from parent, range %.1f", trial, i, d, cfg.Range)
			}
		}
	}
}

func TestBuildMinHop(t *testing.T) {
	// BFS property: a node's depth is minimal over all in-range paths.
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultBuildConfig(60)
	net, err := Build(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute shortest hop counts by BFS over the full range graph.
	n := net.Size()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[Root] = 0
	queue := []NodeID{Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for u := 0; u < n; u++ {
			if dist[u] == -1 && net.Pos(NodeID(u)).Dist(net.Pos(v)) <= cfg.Range {
				dist[u] = dist[v] + 1
				queue = append(queue, NodeID(u))
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i] >= 0 && net.Depth(NodeID(i)) != dist[i] {
			t.Errorf("node %d: depth %d, BFS distance %d", i, net.Depth(NodeID(i)), dist[i])
		}
	}
}

func TestAncestorEdgesMatchesAncestors(t *testing.T) {
	net := BalancedTree(3, 3)
	f := func(raw uint8) bool {
		v := NodeID(int(raw) % net.Size())
		var edges []NodeID
		net.AncestorEdges(v, func(e NodeID) { edges = append(edges, e) })
		if len(edges) != net.Depth(v) {
			return false
		}
		anc := net.Ancestors(v)
		if len(anc) != net.Depth(v) {
			return false
		}
		// edges[i] is the lower endpoint; its parent must be anc[i].
		for i, e := range edges {
			if net.Parent(e) != anc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZonePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultBuildConfig(100)
	pos, zoneOf := ZonePlacement(cfg, 6, 10, rng)
	if len(pos) != 100 || len(zoneOf) != 100 {
		t.Fatalf("lengths %d/%d", len(pos), len(zoneOf))
	}
	if zoneOf[0] != -1 {
		t.Error("root assigned to a zone")
	}
	counts := make(map[int]int)
	for _, z := range zoneOf {
		counts[z]++
	}
	for z := 0; z < 6; z++ {
		if counts[z] != 10 {
			t.Errorf("zone %d has %d nodes, want 10", z, counts[z])
		}
	}
	if counts[-1] != 100-60 {
		t.Errorf("background count %d", counts[-1])
	}
}

func TestSortedByDepth(t *testing.T) {
	net := BalancedTree(2, 4)
	order := net.SortedByDepth()
	if len(order) != net.Size() {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if net.Depth(order[i-1]) > net.Depth(order[i]) {
			t.Fatalf("order not sorted by depth at %d", i)
		}
	}
}

func TestPostorderWalkChildrenFirst(t *testing.T) {
	net := BalancedTree(3, 2)
	seen := make(map[NodeID]bool)
	net.PostorderWalk(func(v NodeID) {
		for _, c := range net.Children(v) {
			if !seen[c] {
				t.Fatalf("node %d visited before child %d", v, c)
			}
		}
		seen[v] = true
	})
	if len(seen) != net.Size() {
		t.Errorf("visited %d of %d", len(seen), net.Size())
	}
}

func TestWriteDOT(t *testing.T) {
	net := BalancedTree(2, 2)
	var buf strings.Builder
	bw := []int{0, 2, 0, 1, 1, 0, 0}
	if err := net.WriteDOT(&buf, "demo", bw); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph \"demo\"", "doublecircle", "n1 -> n0 [label=\"2\"]", "style=dashed", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Without an overlay, edges are plain.
	buf.Reset()
	if err := net.WriteDOT(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "dashed") {
		t.Error("plain DOT has overlay styling")
	}
	if err := net.WriteDOT(&buf, "x", []int{1}); err == nil {
		t.Error("accepted short overlay")
	}
}

func TestAccessors(t *testing.T) {
	net := BalancedTree(2, 2)
	if net.Depth(3) != 2 {
		t.Errorf("Depth(3) = %d", net.Depth(3))
	}
	desc := net.Descendants(1)
	if len(desc) != 3 || desc[0] != 1 {
		t.Errorf("Descendants(1) = %v", desc)
	}
	s := net.String()
	for _, want := range []string{"nodes=7", "height=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q", s)
		}
	}
}

// bruteWithin is the all-pairs scan Within replaces, in [][]NodeID form.
func bruteWithin(net *Network, r float64) [][]NodeID {
	out := make([][]NodeID, net.Size())
	for i := 0; i < net.Size(); i++ {
		for j := 0; j < net.Size(); j++ {
			if i != j && net.Pos(NodeID(i)).Dist(net.Pos(NodeID(j))) <= r {
				out[i] = append(out[i], NodeID(j))
			}
		}
	}
	return out
}

// checkWithin compares one Within result with the brute-force scan,
// neighbour for neighbour and in order.
func checkWithin(t *testing.T, net *Network, r float64, off, adj []int32) {
	t.Helper()
	want := bruteWithin(net, r)
	if len(off) != net.Size()+1 || int(off[net.Size()]) != len(adj) || len(adj) != cap(adj) {
		t.Fatalf("r=%v: %d offsets, last %d, adjacency len %d cap %d", r, len(off), off[len(off)-1], len(adj), cap(adj))
	}
	for i := range want {
		got := adj[off[i]:off[i+1]]
		if len(got) != len(want[i]) {
			t.Fatalf("r=%v node %d: %d neighbours, want %d", r, i, len(got), len(want[i]))
		}
		for x := range got {
			if NodeID(got[x]) != want[i][x] {
				t.Fatalf("r=%v node %d: neighbours %v, want %v", r, i, got, want[i])
			}
		}
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	net, err := Build(DefaultBuildConfig(120), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0, 3, 10, 22.5, 60, 200} {
		off, adj := net.Within(r)
		checkWithin(t, net, r, off, adj)
	}
	// Nodes 1 and 2 sit exactly 5 m apart (a 3-4-5 triangle): the range
	// is inclusive, so they are neighbours at 5 and not a hair below.
	pair, err := New([]NodeID{0, 0, 1}, []Point{{0, 0}, {10, 10}, {13, 14}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{5, math.Nextafter(5, 0)} {
		off, adj := pair.Within(r)
		checkWithin(t, pair, r, off, adj)
		if linked := off[2]-off[1] == 1; linked != (r == 5) {
			t.Errorf("r=%v: nodes 5 m apart linked=%v", r, linked)
		}
	}
}

// TestWithinAlternatingRanges switches the one-entry cache between two
// ranges: every call must answer for its own range, never the other's.
func TestWithinAlternatingRanges(t *testing.T) {
	net, err := Build(DefaultBuildConfig(80), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r := []float64{10, 30}[i%2]
		off, adj := net.Within(r)
		checkWithin(t, net, r, off, adj)
	}
	// A repeated range is served from the cache: the same arrays.
	off1, _ := net.Within(30)
	off2, _ := net.Within(30)
	if &off1[0] != &off2[0] {
		t.Error("a repeated range rebuilt the graph")
	}
}

// TestWithinConcurrent has several goroutines race for one network's
// cache over two ranges; run it under -race.
func TestWithinConcurrent(t *testing.T) {
	net, err := Build(DefaultBuildConfig(60), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64][][]NodeID{10: bruteWithin(net, 10), 25: bruteWithin(net, 25)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := []float64{10, 25}[(g+i)%2]
				off, adj := net.Within(r)
				for v, nbs := range want[r] {
					got := adj[off[v]:off[v+1]]
					if len(got) != len(nbs) {
						t.Errorf("r=%v node %d: %d neighbours, want %d", r, v, len(got), len(nbs))
						return
					}
					for x, nb := range nbs {
						if NodeID(got[x]) != nb {
							t.Errorf("r=%v node %d: neighbours %v, want %v", r, v, got, nbs)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
