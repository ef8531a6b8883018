package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHandlerConcurrentScrape hammers the live /metrics endpoint
// while writer goroutines update every metric
// kind and emit spans through a buffered tracer. The interesting
// assertions are the ones the race detector adds: any unsynchronized
// access between a scrape-time snapshot and a hot-path write fails the
// -race CI job.
func TestHandlerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	tracer := NewBufferedTracer(io.Discard)
	h := Handler(reg)

	// Register the series up front so every scrape below must see them;
	// the writers then share the handles, which is the hot-path shape.
	c := reg.Counter("stress.ops")
	g := reg.Gauge("stress.level")
	hist := reg.Histogram("stress.latency", []float64{1, 10, 100})

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				hist.Observe(float64(i % 128))
				sp := tracer.StartSpan(nil, "stress", float64(i))
				sp.Event("tick", float64(i))
				sp.End(float64(i + 1))
			}
		}(w)
	}

	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status = %d", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "stress_ops") {
			t.Fatalf("/metrics missing stress_ops:\n%s", rec.Body.String())
		}
	}

	close(stop)
	wg.Wait()
	if err := tracer.Flush(); err != nil {
		t.Fatalf("tracer saw an error under load: %v", err)
	}
}
