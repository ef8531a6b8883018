package sample

import (
	"fmt"
	"math/rand"

	"prospector/internal/energy"
	"prospector/internal/network"
)

// CollectionCost returns the energy spent gathering one full-network
// sample: every node unicasts its entire subtree's readings to its
// parent (plus the trigger broadcast that starts the collection). This
// is the "spend more energy to collect all values" step of the
// exploration/exploitation sampler in Section 3.
func CollectionCost(net *network.Network, m energy.Model) float64 {
	cost := 0.0
	for i := 1; i < net.Size(); i++ {
		cost += m.Unicast(net.SubtreeSize(network.NodeID(i)), 0)
	}
	// Trigger broadcast reaches every internal node.
	for _, v := range net.Preorder() {
		if len(net.Children(v)) > 0 {
			cost += m.Trigger()
		}
	}
	return cost
}

// Collector implements the exploration/exploitation sampling schedule:
// at randomly chosen timesteps (probability Rate per epoch) the whole
// network is sampled and the reading vector enters the window. It also
// tracks the cumulative energy spent on sampling so experiments can
// account for it.
type Collector struct {
	set   *Set
	net   *network.Network
	model energy.Model
	rate  float64
	rng   *rand.Rand
	spent float64
}

// NewCollector wires a sampling schedule to a sample window. rate is
// the per-epoch probability of collecting a sample and must be in
// (0, 1].
func NewCollector(set *Set, net *network.Network, m energy.Model, rate float64, rng *rand.Rand) (*Collector, error) {
	if set == nil || net == nil {
		return nil, fmt.Errorf("sample: collector needs a set and a network")
	}
	if set.Nodes() != net.Size() {
		return nil, fmt.Errorf("sample: set over %d nodes, network has %d", set.Nodes(), net.Size())
	}
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sample: rate must be in (0,1], got %g", rate)
	}
	return &Collector{set: set, net: net, model: m, rate: rate, rng: rng}, nil
}

// Observe passes one epoch of ground-truth readings through the
// schedule; with probability rate the epoch is collected as a sample
// and its collection energy charged. It reports whether the epoch was
// sampled.
func (c *Collector) Observe(values []float64) (sampled bool, err error) {
	if c.rng.Float64() >= c.rate {
		return false, nil
	}
	if err := c.set.Add(values); err != nil {
		return false, err
	}
	c.spent += CollectionCost(c.net, c.model)
	return true, nil
}

// SetRate adjusts the sampling rate; the re-sampling policy of Section
// 4.4 raises it when proof-carrying runs report poor accuracy.
func (c *Collector) SetRate(rate float64) error {
	if rate <= 0 || rate > 1 {
		return fmt.Errorf("sample: rate must be in (0,1], got %g", rate)
	}
	c.rate = rate
	return nil
}

// Rate returns the current per-epoch sampling probability.
func (c *Collector) Rate() float64 { return c.rate }

// EnergySpent returns the cumulative energy charged to sampling.
func (c *Collector) EnergySpent() float64 { return c.spent }
