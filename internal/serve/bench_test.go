package serve_test

import (
	"sync"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/serve"
)

// The serving benchmark asks: at 8 concurrent clients pacing over a
// shared budget axis, how many plans/sec does the service serve versus
// (a) one warm planner behind a mutex — the service's own design
// without admission, deadlines and metrics — and (b) a fresh cold
// planner per request behind a mutex? The service and mutex8 should
// read alike: both serve from one planner's budget frontier, so the
// gap to cold8 is the parametric tier's, not parallelism's (these run
// on any core count).
//
// Measured with:
//
//	go test ./internal/serve/ -run - -bench BenchmarkServe -benchtime 2s -benchmem

const benchClients = 8

// benchAxis is the shared budget axis the clients walk in lockstep:
// 32 budgets at a fine stride, the resolution a dashboard sweeping an
// energy budget actually queries at. After the first pass every
// budget is a frontier hit.
func benchAxis() []float64 {
	axis := make([]float64, 32)
	for i := range axis {
		axis[i] = 60 + 5*float64(i)
	}
	return axis
}

func benchScenario(b *testing.B, reg *obs.Registry) core.Config {
	cfg := makeConfig(b, 3, 60, 10, 15)
	cfg.Obs = reg
	return cfg
}

// runClients splits b.N plan requests across benchClients goroutines,
// each walking benchAxis round-robin, and reports plans/sec.
func runClients(b *testing.B, plan func(budget float64) error) {
	axis := benchAxis()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	b.ResetTimer()
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := b.N / benchClients
			if c < b.N%benchClients {
				n++
			}
			for i := 0; i < n; i++ {
				if err := plan(axis[i%len(axis)]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
}

// reportWarmHitRate publishes the chain health of a benchmark run and
// enforces the serving-tier floor (hit rate >= 0.9) once enough plans
// accumulated to make the ratio meaningful (short -benchtime smoke
// runs are exempt). A frontier hit serves a budget with no solve at
// all, so it counts with the warm re-solves.
func reportWarmHitRate(b *testing.B, reg *obs.Registry) {
	warm := float64(reg.Counter("lp.warm_resolves").Value() + reg.Counter("core.frontier_hits").Value())
	cold := float64(reg.Counter("lp.cold_solves").Value())
	fall := float64(reg.Counter("lp.warm_fallbacks").Value())
	total := warm + cold + fall
	if total == 0 {
		return
	}
	rate := warm / total
	b.ReportMetric(rate, "warm_hit_rate")
	if total >= 20 && rate < 0.9 {
		b.Fatalf("warm hit rate = %.3f (warm or frontier %g cold %g fallback %g), want >= 0.9", rate, warm, cold, fall)
	}
}

func BenchmarkServeThroughput(b *testing.B) {
	b.Run("service8", func(b *testing.B) {
		reg := obs.NewRegistry()
		cfg := benchScenario(b, reg)
		svc, err := serve.New(serve.Options{
			QueueDepth: 256, Now: time.Now, Obs: reg,
		}, snapshotProvider(cfg))
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		key := serve.Key{Network: "n60", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
		runClients(b, func(budget float64) error {
			_, err := svc.Submit(key, budget, time.Time{})
			return err
		})
		reportWarmHitRate(b, reg)
	})

	// The baseline: the same 8 clients serialized onto ONE warm
	// parametric planner by a mutex, with nothing around it.
	b.Run("mutex8", func(b *testing.B) {
		reg := obs.NewRegistry()
		cfg := benchScenario(b, reg)
		snap, err := core.NewSnapshot(cfg, core.KindLPFilter)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := snap.NewPlanner()
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		runClients(b, func(budget float64) error {
			mu.Lock()
			defer mu.Unlock()
			_, err := pl.Plan(budget)
			return err
		})
		reportWarmHitRate(b, reg)
	})

	// Floor reference: a fresh planner per request (rebuild + cold
	// solve) behind a mutex — what serving costs without the
	// parametric tier.
	b.Run("cold8", func(b *testing.B) {
		reg := obs.NewRegistry()
		cfg := benchScenario(b, reg)
		var mu sync.Mutex
		runClients(b, func(budget float64) error {
			mu.Lock()
			defer mu.Unlock()
			pl, err := core.NewLPFilter(cfg)
			if err != nil {
				return err
			}
			_, err = pl.Plan(budget)
			return err
		})
	})
}
