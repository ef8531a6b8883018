package ledger_test

import (
	"fmt"
	"io"
	"testing"

	"prospector/internal/ledger"
	"prospector/internal/obs"
)

// benchRegistry builds a registry of the shape a full experiments run
// leaves behind: a few dozen counters, per-node gauges, and
// histograms.
func benchRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("exec.level.%d.messages", i)).Add(int64(i * 3))
	}
	for i := 0; i < 120; i++ {
		reg.Gauge(fmt.Sprintf("exec.node.%d.energy_mj", i)).Set(float64(i) * 1.5)
	}
	bounds := []float64{1, 2, 5, 10, 20, 50}
	for i := 0; i < 8; i++ {
		h := reg.Histogram(fmt.Sprintf("lp.h%d", i), bounds)
		for j := 0; j < 200; j++ {
			h.Observe(float64(j % 37))
		}
	}
	return reg
}

// BenchmarkManifestBuild measures assembling a manifest from a
// realistic end-of-run snapshot (the split/copy work).
func BenchmarkManifestBuild(b *testing.B) {
	reg := benchRegistry()
	snap := reg.Snapshot()
	env := ledger.HostEnvironment(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ledger.New("bench", map[string]string{"fig": "3"}, snap, env)
	}
}

// BenchmarkManifestWrite measures the full emission path: snapshot ->
// manifest -> indented JSON. This is the per-run overhead -manifest
// adds to a figure run.
func BenchmarkManifestWrite(b *testing.B) {
	reg := benchRegistry()
	env := ledger.HostEnvironment(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ledger.New("bench", map[string]string{"fig": "3"}, reg.Snapshot(), env)
		if err := m.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
