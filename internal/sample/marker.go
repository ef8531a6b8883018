package sample

import "fmt"

// Marker identifies, for one sample of readings, which nodes contribute
// to a query's answer — the generalization of Section 3: the Boolean
// matrix M works for any query returning a subset of sensor values
// (top-k, selection), with M[j][i] = 1 iff node i contributes to the
// answer on sample j. Markers return contributing node indices; order
// is preserved in Ones. Sets made by NewSet mark the top k themselves.
type Marker func(values []float64) []int

// ThresholdMarker marks every reading strictly above tau (the paper's
// selection-query example, "return all readings greater than tau").
func ThresholdMarker(tau float64) Marker {
	return func(values []float64) []int {
		var out []int
		for i, v := range values {
			if v > tau {
				out = append(out, i)
			}
		}
		return out
	}
}

// NewGeneralSet creates a sample window whose contributor sets come
// from an arbitrary Marker instead of the built-in top-k rule. General
// sets report K() == 0; the planners that only need column sums and
// ones-sets (GREEDY, LP-LF) accept them directly.
func NewGeneralSet(n, window int, mark Marker) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("sample: need at least 1 node, got %d", n)
	}
	if mark == nil {
		return nil, fmt.Errorf("sample: nil marker")
	}
	return &Set{n: n, k: 0, window: window, mark: mark, colSums: make([]int, n)}, nil
}
