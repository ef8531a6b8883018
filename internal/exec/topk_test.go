package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"prospector/internal/network"
)

// sortTopK is the sort-based TrueTopK that the selection replaced: rank
// every reading, keep the first k. It is the oracle for the selection.
func sortTopK(values []float64, k int) []ValueAt {
	all := make([]ValueAt, len(values))
	for i, v := range values {
		all[i] = ValueAt{Node: network.NodeID(i), Val: v}
	}
	SortDesc(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// setAccuracy is the map-based Accuracy that the selection replaced.
func setAccuracy(returned []ValueAt, truth []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	top := sortTopK(truth, k)
	have := make(map[network.NodeID]bool, len(returned))
	for _, r := range returned {
		have[r.Node] = true
	}
	hit := 0
	for _, t := range top {
		if have[t.Node] {
			hit++
		}
	}
	return float64(hit) / float64(len(top))
}

// TestTopKMatchesSortOracle compares TrueTopK and Accuracy with the
// sort-based code on random inputs: readings with many ties, k from 0
// past n, and returned lists with duplicates, foreign values and nodes
// outside the network. TrueTopK must return the same readings in the
// same order, and Accuracy the same float, bit for bit.
func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(90)
		if trial%50 == 0 {
			n = 600 + rng.Intn(100) // past Accuracy's stack bitset
		}
		truth := make([]float64, n)
		levels := 1 + rng.Intn(12) // few levels: many ties
		for i := range truth {
			truth[i] = float64(rng.Intn(levels)) - 3
			if trial%3 == 0 {
				truth[i] = rng.NormFloat64()
			}
		}
		var returned []ValueAt
		for len(returned) < rng.Intn(n+8) {
			v := network.NodeID(rng.Intn(n + 3)) // some outside the network
			val := rng.NormFloat64()
			if int(v) < n && rng.Intn(2) == 0 {
				val = truth[v]
			}
			returned = append(returned, ValueAt{Node: v, Val: val})
			if rng.Intn(4) == 0 {
				returned = append(returned, returned[rng.Intn(len(returned))]) // a duplicate
			}
		}
		if rng.Intn(2) == 0 {
			SortDesc(returned)
		}
		for _, k := range []int{0, 1, rng.Intn(n + 1), n / 2, n, n + 1 + rng.Intn(5), 33 + rng.Intn(40)} {
			want, got := sortTopK(truth, k), TrueTopK(truth, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, n=%d, k=%d: TrueTopK = %v, sort oracle %v", trial, n, k, got, want)
			}
			a, b := Accuracy(returned, truth, k), setAccuracy(returned, truth, k)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d, n=%d, k=%d: Accuracy = %v, oracle %v", trial, n, k, a, b)
			}
		}
	}
}

// TestAccuracyAllocFree pins Accuracy at zero allocations for networks
// of up to 512 nodes and k up to 32.
func TestAccuracyAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth := make([]float64, 200)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	returned := TrueTopK(truth, 30)
	if allocs := testing.AllocsPerRun(100, func() { Accuracy(returned, truth, 20) }); allocs != 0 {
		t.Fatalf("Accuracy allocated %v times per call, want 0", allocs)
	}
}
