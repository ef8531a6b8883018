package sample

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTopKIndices(t *testing.T) {
	vals := []float64{5, 9, 1, 9, 7}
	got := TopKIndices(vals, 3)
	// Ties broken by lower index: 9@1 beats 9@3.
	want := []int{1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopKIndices = %v, want %v", got, want)
	}
	if got := TopKIndices(vals, 10); len(got) != 5 {
		t.Errorf("k > n returned %d indices", len(got))
	}
	if got := TopKIndices(vals, 0); got != nil {
		t.Errorf("k = 0 returned %v", got)
	}
}

func TestTopKProperties(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := 1 + int(kRaw)%len(raw)
		top := TopKIndices(raw, k)
		if len(top) != k {
			return false
		}
		// Every member outranks every non-member.
		inTop := make(map[int]bool, k)
		for _, i := range top {
			inTop[i] = true
		}
		for _, i := range top {
			for j := range raw {
				if !inTop[j] && Before(raw, j, i) {
					return false
				}
			}
		}
		// Members listed in rank order.
		for i := 1; i < len(top); i++ {
			if Before(raw, top[i], top[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetColumnSums(t *testing.T) {
	s := MustNewSet(4, 2, 0)
	if err := s.Add([]float64{1, 4, 3, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]float64{9, 0, 8, 7}); err != nil {
		t.Fatal(err)
	}
	wantSums := []int{1, 1, 2, 0}
	if got := s.ColumnSums(); !reflect.DeepEqual(got, wantSums) {
		t.Errorf("ColumnSums = %v, want %v", got, wantSums)
	}
	if got := s.TotalOnes(); got != 4 {
		t.Errorf("TotalOnes = %d, want 4", got)
	}
	if !s.IsOne(0, 1) || s.IsOne(0, 0) {
		t.Error("IsOne wrong for sample 0")
	}
	if got := s.Ones(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Ones(1) = %v", got)
	}
}

func TestSetWindowEviction(t *testing.T) {
	s := MustNewSet(3, 1, 2)
	for i := 0; i < 5; i++ {
		v := []float64{0, 0, 0}
		v[i%3] = 10 // the top-1 rotates across nodes
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("window holds %d, want 2", s.Len())
	}
	// Samples 3 and 4 remain: tops at node 0 and node 1.
	if got := s.ColumnSums(); !reflect.DeepEqual(got, []int{1, 1, 0}) {
		t.Errorf("ColumnSums after eviction = %v", got)
	}
}

func TestColumnSumsMatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := MustNewSet(20, 5, 7)
	for e := 0; e < 30; e++ {
		v := make([]float64, 20)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		// Invariant: column sums equal the recount over the window.
		recount := make([]int, 20)
		for j := 0; j < s.Len(); j++ {
			for _, i := range s.Ones(j) {
				recount[i]++
			}
		}
		if got := s.ColumnSums(); !reflect.DeepEqual(got, recount) {
			t.Fatalf("epoch %d: sums %v != recount %v", e, got, recount)
		}
	}
}

func TestSmallerInSubtree(t *testing.T) {
	s := MustNewSet(5, 2, 0)
	if err := s.Add([]float64{5, 3, 8, 1, 8}); err != nil {
		t.Fatal(err)
	}
	// Node 2 has 8; node 4 also has 8 but higher index, so ranks below.
	got := s.SmallerInSubtree(0, 2, []int{0, 1, 2, 3, 4})
	want := []int{0, 1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SmallerInSubtree = %v, want %v", got, want)
	}
	// And node 4's smaller set excludes node 2.
	got = s.SmallerInSubtree(0, 4, []int{0, 1, 2, 3, 4})
	want = []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SmallerInSubtree(4) = %v, want %v", got, want)
	}
}

func TestSetValidation(t *testing.T) {
	if _, err := NewSet(0, 1, 0); err == nil {
		t.Error("NewSet accepted 0 nodes")
	}
	if _, err := NewSet(5, 0, 0); err == nil {
		t.Error("NewSet accepted k = 0")
	}
	if _, err := NewSet(5, 6, 0); err == nil {
		t.Error("NewSet accepted k > n")
	}
	s := MustNewSet(3, 1, 0)
	if err := s.Add([]float64{1, 2}); err == nil {
		t.Error("Add accepted wrong width")
	}
}

// TestSampleIDs pins the identities the parametric planners slide by:
// they ascend, follow their sample through evictions, survive Clone,
// and are never reused by the clone's or a projection's new samples.
func TestSampleIDs(t *testing.T) {
	s := MustNewSet(3, 1, 2)
	ids := func(s *Set) []uint64 {
		var out []uint64
		for j := 0; j < s.Len(); j++ {
			out = append(out, s.ID(j))
		}
		return out
	}
	for i := 0; i < 5; i++ {
		if err := s.Add([]float64{float64(i), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ids(s); !reflect.DeepEqual(got, []uint64{3, 4}) {
		t.Fatalf("IDs after eviction = %v, want [3 4]", got)
	}
	c := s.Clone()
	if got := ids(c); !reflect.DeepEqual(got, []uint64{3, 4}) {
		t.Fatalf("clone IDs = %v, want [3 4]", got)
	}
	if err := c.Add([]float64{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if got := ids(c); !reflect.DeepEqual(got, []uint64{4, 5}) {
		t.Errorf("clone IDs after a slide = %v, want [4 5]", got)
	}
	p, err := s.Project([]int{0, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(p); !reflect.DeepEqual(got, []uint64{5, 6}) {
		t.Errorf("projection IDs = %v, want [5 6]", got)
	}
}

func TestClone(t *testing.T) {
	s := MustNewSet(3, 1, 0)
	if err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Add([]float64{9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: %d vs %d", s.Len(), c.Len())
	}
	if s.ColumnSum(0) != 0 || c.ColumnSum(0) != 1 {
		t.Error("clone shares column sums")
	}
}

func TestProject(t *testing.T) {
	s := MustNewSet(4, 2, 0)
	if err := s.Add([]float64{1, 9, 8, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]float64{7, 1, 2, 6}); err != nil {
		t.Fatal(err)
	}
	// Remove node 1 (the first sample's top value).
	mapping := []int{0, -1, 1, 2}
	p, err := s.Project(mapping)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 3 || p.Len() != 2 {
		t.Fatalf("projected set %d nodes, %d samples", p.Nodes(), p.Len())
	}
	// Sample 0 over survivors {1, 8, 2}: top-2 = old nodes 2 and 3,
	// new indices 1 and 2.
	if got := p.Ones(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("projected Ones(0) = %v", got)
	}
	// Sample 1 over {7, 2, 6}: top-2 = new indices 0 and 2.
	if got := p.Ones(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("projected Ones(1) = %v", got)
	}
}

func TestProjectValidation(t *testing.T) {
	s := MustNewSet(3, 1, 0)
	if err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Project([]int{0, 1}); err == nil {
		t.Error("accepted short mapping")
	}
	if _, err := s.Project([]int{-1, -1, -1}); err == nil {
		t.Error("accepted empty projection")
	}
}

func TestProjectCapsK(t *testing.T) {
	s := MustNewSet(4, 3, 0)
	if err := s.Add([]float64{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	p, err := s.Project([]int{0, 1, -1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 2 {
		t.Errorf("projected k = %d, want capped 2", p.K())
	}
}
