// Package sample maintains the windows of past full-network readings
// that drive sampling-based query planning (Section 3 of the paper).
// Each sample is one assignment of a value to every node; the set also
// materializes the Boolean top-k matrix M (M[j][i] = 1 iff node i's
// value ranks in the top k of sample j), its column sums, and the
// per-sample ones(j) sets the linear programs consume.
package sample

import (
	"fmt"
	"sort"
)

// TopKIndices returns the indices of the k largest values, ordered by
// decreasing value with ties broken by increasing index. If k exceeds
// len(values), all indices are returned.
func TopKIndices(values []float64, k int) []int {
	if k > len(values) {
		k = len(values)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// Before reports whether node a's reading outranks node b's under the
// deterministic ordering used everywhere in this module: larger value
// first, smaller index first on ties.
func Before(values []float64, a, b int) bool {
	if values[a] != values[b] {
		return values[a] > values[b]
	}
	return a < b
}

// Set is a window of samples over an n-node network, with the derived
// top-k structures kept up to date incrementally. The zero value is not
// usable; construct with NewSet. Set is not safe for concurrent
// mutation.
type Set struct {
	n, k, window int
	mark         Marker // nil => top-k marking
	samples      [][]float64
	ones         [][]int // ones[j]: node indices contributing to sample j's answer
	isOne        [][]bool
	colSums      []int
	// gen counts content mutations. A sliding window keeps Len constant
	// while the samples change, so consumers caching derived state key
	// on Gen, not Len.
	gen uint64
	// ids[j] is sample j's identity: drawn from nextID on Add, so they
	// ascend oldest first and tell which samples a slide evicted and
	// which it added (the parametric LP planners move their programs
	// by them).
	ids    []uint64
	nextID uint64
}

// NewSet creates an empty sample set for an n-node network, tracking
// the top k, holding at most window samples (oldest evicted first).
// window <= 0 means unbounded.
func NewSet(n, k, window int) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("sample: need at least 1 node, got %d", n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("sample: k must be in [1,%d], got %d", n, k)
	}
	return &Set{n: n, k: k, window: window, colSums: make([]int, n)}, nil
}

// MustNewSet is NewSet for callers with statically valid arguments.
func MustNewSet(n, k, window int) *Set {
	s, err := NewSet(n, k, window)
	if err != nil {
		panic(err)
	}
	return s
}

// Nodes returns the network size n.
func (s *Set) Nodes() int { return s.n }

// K returns the rank bound the set tracks, or 0 for a general
// marker-based set (see NewGeneralSet).
func (s *Set) K() int { return s.k }

// Len returns the number of samples currently held.
func (s *Set) Len() int { return len(s.samples) }

// Add appends one sample (a full assignment of readings) to the window,
// evicting the oldest sample if the window is full. The slice is copied.
func (s *Set) Add(values []float64) error {
	if len(values) != s.n {
		return fmt.Errorf("sample: got %d values for %d nodes", len(values), s.n)
	}
	if s.window > 0 && len(s.samples) == s.window {
		s.evictOldest()
	}
	v := append([]float64(nil), values...)
	var top []int
	if s.mark != nil {
		top = s.mark(v)
	} else {
		top = TopKIndices(v, s.k)
	}
	mask := make([]bool, s.n)
	for _, i := range top {
		mask[i] = true
		s.colSums[i]++
	}
	s.samples = append(s.samples, v)
	s.ones = append(s.ones, top)
	s.isOne = append(s.isOne, mask)
	s.ids = append(s.ids, s.nextID)
	s.nextID++
	s.gen++
	return nil
}

// Gen returns the mutation generation: it changes whenever the window
// content changes (Add, including evictions). Cache derived state
// against Gen — Len alone misses sliding-window turnover.
func (s *Set) Gen() uint64 { return s.gen }

// ID returns sample j's identity: unique within the set and its
// clones, kept while the sample stays in the window, and larger for
// later samples.
func (s *Set) ID(j int) uint64 { return s.ids[j] }

// AddAll adds every epoch in order.
func (s *Set) AddAll(epochs [][]float64) error {
	for _, e := range epochs {
		if err := s.Add(e); err != nil {
			return err
		}
	}
	return nil
}

func (s *Set) evictOldest() {
	for _, i := range s.ones[0] {
		s.colSums[i]--
	}
	s.samples = s.samples[1:]
	s.ones = s.ones[1:]
	s.isOne = s.isOne[1:]
	s.ids = s.ids[1:]
}

// Value returns node i's reading in sample j.
func (s *Set) Value(j, i int) float64 { return s.samples[j][i] }

// Values returns sample j's full reading vector. The caller must not
// modify the result.
func (s *Set) Values(j int) []float64 { return s.samples[j] }

// Ones returns the node indices holding sample j's top-k values, in
// rank order. The caller must not modify the result.
func (s *Set) Ones(j int) []int { return s.ones[j] }

// IsOne reports whether node i ranks in sample j's top k.
func (s *Set) IsOne(j, i int) bool { return s.isOne[j][i] }

// ColumnSum returns how many samples have node i in their top k: the
// column sum of the Boolean matrix M, the priority PROSPECTOR GREEDY
// uses.
func (s *Set) ColumnSum(i int) int { return s.colSums[i] }

// ColumnSums returns a copy of all column sums.
func (s *Set) ColumnSums() []int { return append([]int(nil), s.colSums...) }

// TotalOnes returns the number of 1-entries in M across all samples.
func (s *Set) TotalOnes() int {
	t := 0
	for j := range s.ones {
		t += len(s.ones[j])
	}
	return t
}

// SmallerInSubtree returns, for sample j, the node indices among
// subtree whose readings rank strictly below node i's reading (the
// paper's smaller(i, j) restricted to a subtree). subtree must not
// contain duplicates.
func (s *Set) SmallerInSubtree(j, i int, subtree []int) []int {
	var out []int
	for _, u := range subtree {
		if u != i && Before(s.samples[j], i, u) {
			out = append(out, u)
		}
	}
	return out
}

// Project rebuilds the set over a surviving subset of nodes after a
// topology repair: mapping[old] gives each old node's new index, or -1
// for removed nodes. Contributor sets are recomputed over the projected
// readings (a dead node's values no longer compete for the top k). The
// window limit carries over; k is capped at the survivor count.
func (s *Set) Project(mapping []int) (*Set, error) {
	if len(mapping) != s.n {
		return nil, fmt.Errorf("sample: mapping covers %d of %d nodes", len(mapping), s.n)
	}
	survivors := 0
	for _, m := range mapping {
		if m >= 0 {
			survivors++
		}
	}
	if survivors == 0 {
		return nil, fmt.Errorf("sample: projection removes every node")
	}
	// The projected samples are new samples: their identities continue
	// after this set's instead of reusing them.
	out := &Set{n: survivors, k: s.k, window: s.window, mark: s.mark, colSums: make([]int, survivors), nextID: s.nextID}
	if out.k > survivors {
		out.k = survivors
	}
	for j := range s.samples {
		v := make([]float64, survivors)
		for old, m := range mapping {
			if m >= 0 {
				if m >= survivors {
					return nil, fmt.Errorf("sample: mapping value %d out of range", m)
				}
				v[m] = s.samples[j][old]
			}
		}
		if err := out.Add(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a deep copy of the set, sample identities included;
// useful for what-if planning.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, k: s.k, window: s.window, mark: s.mark, colSums: append([]int(nil), s.colSums...),
		ids: append([]uint64(nil), s.ids...), nextID: s.nextID}
	c.samples = make([][]float64, len(s.samples))
	c.ones = make([][]int, len(s.ones))
	c.isOne = make([][]bool, len(s.isOne))
	for j := range s.samples {
		c.samples[j] = append([]float64(nil), s.samples[j]...)
		c.ones[j] = append([]int(nil), s.ones[j]...)
		c.isOne[j] = append([]bool(nil), s.isOne[j]...)
	}
	return c
}
