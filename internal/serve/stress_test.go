package serve_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/obs/telemetry"
	"prospector/internal/serve"
)

// TestServeStress drives the service the way production would under
// load, built to be run with -race: at least 8 client goroutines
// spread over two planner keys hammer Submit with mixed budgets while
// scraper goroutines concurrently pull /metrics, /debug/telemetry,
// and /readyz, and the collector ticks. Any data
// race between the planners, the admission path, the registry, and the
// HTTP surface surfaces here.
func TestServeStress(t *testing.T) {
	cfg := makeConfig(t, 11, 20, 4, 5)
	reg := obs.NewRegistry()
	obsCfg := cfg
	obsCfg.Obs = reg
	svc, err := serve.New(serve.Options{
		QueueDepth: 128, Now: time.Now, Obs: reg,
	}, snapshotProvider(obsCfg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	base := serve.Key{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
	collector := telemetry.NewCollector(reg, 64)
	collector.Sample(0) // tick once so /readyz can go ready
	srv := httptest.NewServer(obs.Handler(reg, serve.Endpoints(svc, base, collector)...))
	defer srv.Close()

	keys := []serve.Key{
		{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K},
		{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPNoFilter, K: cfg.K},
	}
	budgets := []float64{40, 60, 90, 140, 220}

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			key := keys[i%len(keys)]
			for j := 0; j < perClient; j++ {
				b := budgets[rng.Intn(len(budgets))]
				p, err := svc.Submit(key, b, time.Time{})
				if err != nil {
					errs[i] = fmt.Errorf("client %d req %d (key %s, budget %g): %w", i, j, key, b, err)
					return
				}
				if p == nil {
					errs[i] = fmt.Errorf("client %d req %d: nil plan", i, j)
					return
				}
			}
		}(i)
	}

	// Scrapers run until the clients finish.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/telemetry", "/readyz"} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	// Keep the collector ticking alongside the scrapes.
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
				collector.Sample(float64(i))
				time.Sleep(time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(done)
	scrapeWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := reg.Counter("serve.requests").Value(); got != clients*perClient {
		t.Fatalf("serve.requests = %d, want %d", got, clients*perClient)
	}
	if got := reg.Gauge("serve.keys").Value(); got != float64(len(keys)) {
		t.Fatalf("serve.keys = %g, want %d", got, len(keys))
	}
}
