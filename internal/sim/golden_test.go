package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

// goldenDigest fingerprints every Result field of the runs in
// goldenRuns, bit for bit, plus the trace bytes of the traced ones. It
// pins the simulator's exact event order: the order of the RNG's loss
// and jitter draws and of every float sum, which the lossless
// exec-vs-sim equivalence alone cannot see. A change to the event loop
// that keeps this digest computes what the simulator computed before.
const goldenDigest = "143d608697644dbc16b732953368a6838dd480ba91d88ba25f096373fabf41eb"

func TestGoldenDeterminism(t *testing.T) {
	h := sha256.New()
	goldenRuns(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("simulator results changed: digest %s, want %s", got, goldenDigest)
	}
}

// goldenRuns simulates the install and collection phases of Filtering
// and Proof plans on random deployments of 20 to 200 nodes, on media
// that are lossless, lossy, contended, both, and lossy enough to
// exhaust MaxRetries, and writes each Result into h.
func goldenRuns(t *testing.T, h hash.Hash) {
	t.Helper()
	media := []struct {
		name       string
		loss       float64
		rangeM     float64
		maxRetries int
	}{
		{"lossless", 0, 0, 5},
		{"lossy", 0.15, 0, 5},
		{"contended", 0, 10, 5},
		{"lossy+contended", 0.05, 10, 5},
		{"drops", 0.5, 15, 1},
	}
	var drops, deferrals, retrans, proven int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{20 + rng.Intn(40), 60 + rng.Intn(80), 200} {
			net, err := network.Build(network.DefaultBuildConfig(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			vals := randValues(rng, n)
			proof, err := plan.NewProof(net, randBandwidth(rng, net, 1))
			if err != nil {
				t.Fatal(err)
			}
			filter, err := plan.NewFiltering(net, filteringBandwidth(rng, net))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*plan.Plan{filter, proof} {
				for mi, m := range media {
					cfg := DefaultConfig(net)
					cfg.InterferenceRange = m.rangeM
					cfg.MaxRetries = m.maxRetries
					if m.loss > 0 {
						cfg.LossProb = make([]float64, n)
						for v := 1; v < n; v++ {
							cfg.LossProb[v] = m.loss * rng.Float64() * 2
						}
					}
					cfg.Rng = rand.New(rand.NewSource(seed*100 + int64(mi)))
					var trace bytes.Buffer
					if mi%2 == 1 {
						cfg.Obs = obs.NewRegistry()
						cfg.Trace = obs.NewTracer(&trace)
					}
					inst, err := RunInstall(cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(cfg, p, vals)
					if err != nil {
						t.Fatal(err)
					}
					writeResult(h, inst)
					writeResult(h, res)
					h.Write(trace.Bytes())
					drops += inst.Dropped + res.Dropped
					deferrals += inst.Deferrals + res.Deferrals
					retrans += inst.Retransmissions + res.Retransmissions
					proven += res.Proven
				}
			}
		}
	}
	// The cases must reach every branch the digest is meant to pin.
	if drops == 0 || deferrals == 0 || retrans == 0 || proven == 0 {
		t.Fatalf("golden runs miss a branch: %d drops, %d deferrals, %d retransmissions, %d proven",
			drops, deferrals, retrans, proven)
	}
}

// filteringBandwidth draws a Filtering plan's bandwidths, some zero,
// with every edge below an unused edge unused too.
func filteringBandwidth(rng *rand.Rand, net *network.Network) []int {
	bw := randBandwidth(rng, net, 0)
	for _, v := range net.Preorder() {
		if v != network.Root {
			if par := net.Parent(v); par != network.Root && bw[par] == 0 {
				bw[v] = 0
			}
		}
	}
	return bw
}

// writeResult encodes every field of r into h, floats by their bits.
func writeResult(h hash.Hash, r *Result) {
	var buf [8]byte
	i := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	i(len(r.Returned))
	for _, v := range r.Returned {
		i(int(v.Node))
		f(v.Val)
	}
	i(r.Proven)
	f(r.Ledger.Collection)
	f(r.Ledger.Trigger)
	f(r.Ledger.Requests)
	f(r.Ledger.Install)
	i(r.Ledger.Messages)
	i(r.Ledger.Values)
	i(len(r.NodeEnergy))
	for _, e := range r.NodeEnergy {
		f(e)
	}
	f(r.Latency)
	i(r.Retransmissions)
	i(r.Deferrals)
	i(r.Dropped)
	i(len(r.Abandoned))
	for _, v := range r.Abandoned {
		i(int(v))
	}
	for _, edges := range [][]int{r.EdgeAttempts, r.EdgeFailures} {
		i(len(edges))
		for _, x := range edges {
			i(x)
		}
	}
}
