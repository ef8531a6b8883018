package workload

import (
	"fmt"
	"math/rand"

	"prospector/internal/stats"
)

// ZoneConfig describes the contention-zone scenario of the paper's
// Figures 5-7: a background population of nodes with stable readings
// near Mu0, plus Zones clusters of PerZone nodes each whose readings
// have lower means but high enough variance that every zone node has an
// identical ExceedProb chance of exceeding Mu0. With ExceedProb =
// 1/Zones and PerZone = k, the expected number of zone nodes above Mu0
// is k and each zone is expected to supply k/Zones of the top k.
type ZoneConfig struct {
	Nodes   int // total nodes including root and background
	Zones   int
	PerZone int
	// ZoneOf maps node -> zone index or -1 for background nodes. Built
	// by network.ZonePlacement so values line up with the topology.
	ZoneOf []int
	// Mu0 is the background mean; background readings are
	// N(Mu0, BackgroundStd^2).
	Mu0           float64
	BackgroundStd float64
	// ExceedProb is each zone node's probability of exceeding Mu0.
	ExceedProb float64
	// ZoneMeanDrop is how far below Mu0 the zone means sit; the zone
	// standard deviation is derived from it and ExceedProb.
	ZoneMeanDrop float64
	// Territorial switches the zone draw from independent normals to
	// the "territorial birds" pattern of the paper's introduction:
	// each epoch exactly round(ExceedProb*PerZone) arbitrarily chosen
	// zone members read high while the rest read low. This produces
	// the strong negative correlation local filtering exploits.
	Territorial bool
}

// DefaultZoneConfig mirrors the paper's setup for k top values and the
// given zone count: each zone holds k nodes and a zone node exceeds the
// background mean with probability 1/zones. The probability is capped
// just below 1/2, where the derivation of the zone variance (zone means
// sit below Mu0) breaks down.
func DefaultZoneConfig(nodes, zones, k int, zoneOf []int) ZoneConfig {
	p := 1 / float64(zones)
	if p > 0.45 {
		p = 0.45
	}
	return ZoneConfig{
		Nodes:         nodes,
		Zones:         zones,
		PerZone:       k,
		ZoneOf:        zoneOf,
		Mu0:           50,
		BackgroundStd: 0.5,
		ExceedProb:    p,
		ZoneMeanDrop:  4,
	}
}

// ZoneField is the Source implementing ZoneConfig.
type ZoneField struct {
	cfg      ZoneConfig
	zoneStd  float64
	zoneMean float64
	rng      *rand.Rand
	byZone   [][]int // node IDs per zone
}

// NewZoneField validates cfg and builds the source.
func NewZoneField(cfg ZoneConfig, rng *rand.Rand) (*ZoneField, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("workload: need at least 1 node, got %d", cfg.Nodes)
	}
	if len(cfg.ZoneOf) != cfg.Nodes {
		return nil, fmt.Errorf("workload: ZoneOf has %d entries for %d nodes", len(cfg.ZoneOf), cfg.Nodes)
	}
	if cfg.ExceedProb <= 0 || cfg.ExceedProb >= 1 {
		return nil, fmt.Errorf("workload: ExceedProb must be in (0,1), got %g", cfg.ExceedProb)
	}
	if cfg.ZoneMeanDrop <= 0 {
		return nil, fmt.Errorf("workload: ZoneMeanDrop must be positive, got %g", cfg.ZoneMeanDrop)
	}
	f := &ZoneField{
		cfg:      cfg,
		zoneMean: cfg.Mu0 - cfg.ZoneMeanDrop,
		rng:      rng,
		byZone:   make([][]int, cfg.Zones),
	}
	// P(N(zoneMean, sd^2) > Mu0) = ExceedProb
	// => Mu0 = zoneMean + sd * NormInv(1 - ExceedProb).
	z := stats.NormInv(1 - cfg.ExceedProb)
	if z <= 0 {
		return nil, fmt.Errorf("workload: ExceedProb %g >= 0.5 puts zone means above Mu0; lower it", cfg.ExceedProb)
	}
	f.zoneStd = cfg.ZoneMeanDrop / z
	for i, zn := range cfg.ZoneOf {
		if zn >= cfg.Zones {
			return nil, fmt.Errorf("workload: node %d assigned zone %d of %d", i, zn, cfg.Zones)
		}
		if zn >= 0 {
			f.byZone[zn] = append(f.byZone[zn], i)
		}
	}
	return f, nil
}

// Size implements Source.
func (f *ZoneField) Size() int { return f.cfg.Nodes }

// Next implements Source.
func (f *ZoneField) Next() []float64 {
	v := make([]float64, f.cfg.Nodes)
	for i, zn := range f.cfg.ZoneOf {
		if zn < 0 {
			v[i] = f.cfg.Mu0 + f.cfg.BackgroundStd*f.rng.NormFloat64()
		} else if !f.cfg.Territorial {
			v[i] = f.zoneMean + f.zoneStd*f.rng.NormFloat64()
		}
	}
	if f.cfg.Territorial {
		for _, members := range f.byZone {
			f.drawTerritorial(members, v)
		}
	}
	// The root measures nothing interesting; pin it at the background
	// mean so it never competes for the top k.
	if len(v) > 0 && f.cfg.ZoneOf[0] < 0 {
		v[0] = f.cfg.Mu0 - 3*f.cfg.BackgroundStd
	}
	return v
}

// drawTerritorial assigns exactly round(ExceedProb*len(members)) high
// readers in a zone, chosen uniformly per epoch, and low readings to
// everyone else.
func (f *ZoneField) drawTerritorial(members []int, v []float64) {
	winners := int(f.cfg.ExceedProb*float64(len(members)) + 0.5)
	if winners < 1 {
		winners = 1
	}
	if winners > len(members) {
		winners = len(members)
	}
	perm := f.rng.Perm(len(members))
	for rank, pi := range perm {
		i := members[pi]
		if rank < winners {
			// Winners land clearly above the background mean.
			v[i] = f.cfg.Mu0 + f.cfg.ZoneMeanDrop/2 + f.zoneStd/4*absNorm(f.rng)
		} else {
			v[i] = f.zoneMean - f.zoneStd/4*absNorm(f.rng)
		}
	}
}

func absNorm(rng *rand.Rand) float64 {
	x := rng.NormFloat64()
	if x < 0 {
		return -x
	}
	return x
}
