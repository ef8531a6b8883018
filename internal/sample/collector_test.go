package sample

import (
	"math"
	"math/rand"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/network"
)

func TestCollectionCostFormula(t *testing.T) {
	// A chain of 4: node 3 sends 1 value, node 2 sends 2, node 1 sends
	// 3; internal nodes 0, 1, 2 rebroadcast the trigger.
	net := network.Line(4)
	m := energy.DefaultModel()
	want := m.Unicast(1, 0) + m.Unicast(2, 0) + m.Unicast(3, 0) + 3*m.Trigger()
	if got := CollectionCost(net, m); math.Abs(got-want) > 1e-12 {
		t.Errorf("CollectionCost = %g, want %g", got, want)
	}
}

func TestCollectorObserveRate(t *testing.T) {
	net := network.Star(10)
	m := energy.DefaultModel()
	set := MustNewSet(10, 2, 5)
	rng := rand.New(rand.NewSource(1))
	col, err := NewCollector(set, net, m, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	const epochs = 2000
	v := make([]float64, 10)
	for e := 0; e < epochs; e++ {
		ok, err := col.Observe(v)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sampled++
		}
	}
	frac := float64(sampled) / epochs
	if math.Abs(frac-0.3) > 0.04 {
		t.Errorf("sampling fraction %.3f, want ~0.3", frac)
	}
	wantEnergy := float64(sampled) * CollectionCost(net, m)
	if math.Abs(col.EnergySpent()-wantEnergy) > 1e-9 {
		t.Errorf("EnergySpent = %g, want %g", col.EnergySpent(), wantEnergy)
	}
	if set.Len() != 5 {
		t.Errorf("window holds %d, want 5", set.Len())
	}
}

func TestCollectorValidation(t *testing.T) {
	net := network.Star(4)
	m := energy.DefaultModel()
	set := MustNewSet(4, 1, 0)
	rng := rand.New(rand.NewSource(2))
	if _, err := NewCollector(nil, net, m, 0.5, rng); err == nil {
		t.Error("accepted nil set")
	}
	if _, err := NewCollector(MustNewSet(3, 1, 0), net, m, 0.5, rng); err == nil {
		t.Error("accepted size mismatch")
	}
	if _, err := NewCollector(set, net, m, 0, rng); err == nil {
		t.Error("accepted rate 0")
	}
	col, err := NewCollector(set, net, m, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.SetRate(2); err == nil {
		t.Error("accepted rate > 1")
	}
	if err := col.SetRate(0.25); err != nil {
		t.Fatal(err)
	}
	if col.Rate() != 0.25 {
		t.Errorf("Rate = %g", col.Rate())
	}
	if _, err := col.Observe([]float64{1}); err == nil {
		// Observe with wrong width fails only when the draw samples;
		// force it by trying often.
		for i := 0; i < 100; i++ {
			if _, err := col.Observe([]float64{1}); err != nil {
				return
			}
		}
		t.Error("Observe never rejected a short epoch")
	}
}

func TestSetAccessors(t *testing.T) {
	s := MustNewSet(3, 1, 0)
	if err := s.AddAll([][]float64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if s.Value(1, 2) != 6 {
		t.Errorf("Value(1,2) = %g", s.Value(1, 2))
	}
	if vs := s.Values(0); len(vs) != 3 || vs[0] != 1 {
		t.Errorf("Values(0) = %v", vs)
	}
	if err := s.AddAll([][]float64{{1}}); err == nil {
		t.Error("AddAll accepted a short epoch")
	}
}
