package workload

import (
	"fmt"
	"math"
	"math/rand"

	"prospector/internal/network"
)

// IntelLabConfig parameterizes the synthetic stand-in for the Intel
// Berkeley Research Lab temperature dataset used in the paper's
// Figure 9. The original download is unavailable offline, so the
// generator reproduces the properties the experiment depends on:
//
//   - 54 motes on a lab-like floor plan, with radio range shortened
//     until the spanning tree gains real hierarchy (the paper used 6 m);
//   - temperature = diurnal base + spatial gradient + slow per-node
//     AR(1) drift + small measurement noise;
//   - a few persistently warm locations, making the top-k locations
//     fairly predictable across epochs (the reason LP+LF and LP-LF are
//     nearly identical in Figure 9);
//   - occasional missing readings, filled with the average of the
//     node's previous and next epoch, exactly as the paper describes.
type IntelLabConfig struct {
	Motes        int
	Epochs       int
	Width        float64 // lab floor plan extent in meters
	Height       float64
	RadioRange   float64
	BaseTemp     float64 // mean lab temperature
	DiurnalAmp   float64 // amplitude of the shared diurnal cycle
	EpochsPerDay int
	GradientAmp  float64 // spatial temperature gradient across the room
	HotNodes     int     // count of persistently warm motes
	HotOffset    float64 // their temperature offset
	ARCoef       float64 // AR(1) coefficient of per-node drift
	DriftStd     float64 // innovation std of the drift
	NoiseStd     float64 // per-reading measurement noise
	MissingProb  float64 // probability a reading is missing
}

// DefaultIntelLabConfig matches the scale of the real deployment.
func DefaultIntelLabConfig() IntelLabConfig {
	return IntelLabConfig{
		Motes:        54,
		Epochs:       400,
		Width:        40,
		Height:       30,
		RadioRange:   6,
		BaseTemp:     21,
		DiurnalAmp:   2.5,
		EpochsPerDay: 96,
		GradientAmp:  1.5,
		HotNodes:     14,
		HotOffset:    3.5,
		ARCoef:       0.92,
		DriftStd:     0.15,
		NoiseStd:     0.08,
		MissingProb:  0.02,
	}
}

// IntelLab is a fully materialized epoch stream with matching node
// positions. It implements Source; Reset rewinds the stream.
type IntelLab struct {
	cfg    IntelLabConfig
	pos    []network.Point
	epochs [][]float64
	cursor int
}

// NewIntelLab generates the full dataset deterministically from rng.
// Node 0 is the query station placed at a corner desk; it reads the
// plain base temperature so it rarely ranks in the top k.
func NewIntelLab(cfg IntelLabConfig, rng *rand.Rand) (*IntelLab, error) {
	if cfg.Motes < 2 {
		return nil, fmt.Errorf("workload: IntelLab needs at least 2 motes, got %d", cfg.Motes)
	}
	if cfg.Epochs < 3 {
		return nil, fmt.Errorf("workload: IntelLab needs at least 3 epochs, got %d", cfg.Epochs)
	}
	if cfg.EpochsPerDay < 1 {
		return nil, fmt.Errorf("workload: EpochsPerDay must be positive, got %d", cfg.EpochsPerDay)
	}
	lab := &IntelLab{cfg: cfg}
	lab.placeMotes(rng)

	// Persistent warm spots: chosen once among non-root motes.
	hot := make(map[int]bool, cfg.HotNodes)
	for len(hot) < cfg.HotNodes && len(hot) < cfg.Motes-1 {
		hot[1+rng.Intn(cfg.Motes-1)] = true
	}

	drift := make([]float64, cfg.Motes)
	raw := make([][]float64, cfg.Epochs)
	missing := make([][]bool, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		raw[e] = make([]float64, cfg.Motes)
		missing[e] = make([]bool, cfg.Motes)
		day := 2 * math.Pi * float64(e) / float64(cfg.EpochsPerDay)
		base := cfg.BaseTemp + cfg.DiurnalAmp*math.Sin(day)
		for i := 0; i < cfg.Motes; i++ {
			drift[i] = cfg.ARCoef*drift[i] + cfg.DriftStd*rng.NormFloat64()
			t := base +
				cfg.GradientAmp*(lab.pos[i].X/cfg.Width-0.5) +
				drift[i] +
				cfg.NoiseStd*rng.NormFloat64()
			if hot[i] {
				t += cfg.HotOffset
			}
			if i == 0 {
				t = base - 1 // query station sits by the door, cooler
			}
			raw[e][i] = t
			if i != 0 && rng.Float64() < cfg.MissingProb {
				missing[e][i] = true
			}
		}
	}
	// Fill missing readings with the average of the prior and
	// subsequent epoch, per the paper. Edge epochs copy their
	// neighbor.
	for e := range raw {
		for i := range raw[e] {
			if !missing[e][i] {
				continue
			}
			switch {
			case e == 0:
				raw[e][i] = raw[e+1][i]
			case e == len(raw)-1:
				raw[e][i] = raw[e-1][i]
			default:
				raw[e][i] = (raw[e-1][i] + raw[e+1][i]) / 2
			}
		}
	}
	lab.epochs = raw
	return lab, nil
}

// placeMotes lays motes out in a perimeter-plus-rows pattern loosely
// shaped like the lab's published floor plan.
func (lab *IntelLab) placeMotes(rng *rand.Rand) {
	cfg := lab.cfg
	lab.pos = make([]network.Point, cfg.Motes)
	lab.pos[0] = network.Point{X: 1, Y: 1}
	for i := 1; i < cfg.Motes; i++ {
		// Three horizontal rows of desks plus jitter.
		row := i % 3
		frac := float64(i) / float64(cfg.Motes)
		lab.pos[i] = network.Point{
			X: 2 + frac*(cfg.Width-4) + rng.Float64()*1.5,
			Y: 4 + float64(row)*(cfg.Height-8)/2 + rng.Float64()*2,
		}
	}
}

// Network builds the min-hop spanning tree over the motes at the
// configured (shortened) radio range, growing the range slightly if the
// random jitter left the graph disconnected.
func (lab *IntelLab) Network() (*network.Network, error) {
	r := lab.cfg.RadioRange
	for attempt := 0; attempt < 10; attempt++ {
		net, err := network.FromPositions(lab.pos, r)
		if err == nil {
			return net, nil
		}
		r *= 1.15
	}
	return network.FromPositions(lab.pos, r)
}

// Size implements Source.
func (lab *IntelLab) Size() int { return lab.cfg.Motes }

// Epochs returns the total number of generated epochs.
func (lab *IntelLab) Epochs() int { return len(lab.epochs) }

// Next implements Source; it wraps around after the final epoch.
func (lab *IntelLab) Next() []float64 {
	e := lab.epochs[lab.cursor%len(lab.epochs)]
	lab.cursor++
	return append([]float64(nil), e...)
}

// Reset rewinds the stream to the first epoch.
func (lab *IntelLab) Reset() { lab.cursor = 0 }

// Epoch returns a copy of epoch e.
func (lab *IntelLab) Epoch(e int) []float64 {
	return append([]float64(nil), lab.epochs[e]...)
}
