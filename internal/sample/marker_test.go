package sample

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestThresholdMarker(t *testing.T) {
	m := ThresholdMarker(5)
	got := m([]float64{3, 7, 5, 9})
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("ThresholdMarker = %v", got)
	}
	if got := m([]float64{1, 2}); got != nil {
		t.Errorf("no contributors expected, got %v", got)
	}
}

func TestGeneralSetThreshold(t *testing.T) {
	s, err := NewGeneralSet(4, 0, ThresholdMarker(10))
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 0 {
		t.Errorf("general set K = %d", s.K())
	}
	if err := s.Add([]float64{5, 15, 25, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]float64{20, 5, 25, 5}); err != nil {
		t.Fatal(err)
	}
	if got := s.ColumnSums(); !reflect.DeepEqual(got, []int{1, 1, 2, 0}) {
		t.Errorf("ColumnSums = %v", got)
	}
	if !s.IsOne(1, 0) || s.IsOne(1, 1) {
		t.Error("IsOne wrong for general set")
	}
}

func TestGeneralSetWindowEviction(t *testing.T) {
	s, err := NewGeneralSet(3, 2, ThresholdMarker(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for e := 0; e < 9; e++ {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		recount := make([]int, 3)
		for j := 0; j < s.Len(); j++ {
			for _, i := range s.Ones(j) {
				recount[i]++
			}
		}
		if got := s.ColumnSums(); !reflect.DeepEqual(got, recount) {
			t.Fatalf("epoch %d: %v != %v", e, got, recount)
		}
	}
	if s.Len() != 2 {
		t.Errorf("window holds %d", s.Len())
	}
}

func TestGeneralSetValidation(t *testing.T) {
	if _, err := NewGeneralSet(0, 0, ThresholdMarker(0)); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := NewGeneralSet(3, 0, nil); err == nil {
		t.Error("accepted nil marker")
	}
}
