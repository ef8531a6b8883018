package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/obs"
	"prospector/internal/obs/telemetry"
	"prospector/internal/serve"
)

// newHTTPFixture stands up a full serving surface over a real
// snapshot provider: service, collector (pre-ticked), and test server.
func newHTTPFixture(t *testing.T, opts serve.Options) (*serve.Service, *httptest.Server, serve.Key) {
	t.Helper()
	cfg := makeConfig(t, 13, 20, 4, 5)
	reg := obs.NewRegistry()
	obsCfg := cfg
	obsCfg.Obs = reg
	if opts.Now == nil {
		opts.Now = time.Now
	}
	opts.Obs = reg
	svc, err := serve.New(opts, snapshotProvider(obsCfg))
	if err != nil {
		t.Fatal(err)
	}
	base := serve.Key{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
	collector := telemetry.NewCollector(reg, 64)
	collector.Sample(0)
	srv := httptest.NewServer(obs.Handler(reg, serve.Endpoints(svc, base, collector)...))
	t.Cleanup(srv.Close)
	return svc, srv, base
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHTTPPlanOK(t *testing.T) {
	svc, srv, base := newHTTPFixture(t, serve.Options{QueueDepth: 32})
	defer svc.Close()

	status, body, _ := get(t, srv.URL+"/plan?budget=120")
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var doc struct {
		Planner   string  `json:"planner"`
		K         int     `json:"k"`
		Budget    float64 `json:"budget"`
		Kind      string  `json:"kind"`
		Bandwidth []int   `json:"bandwidth"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if doc.Planner != base.Planner || doc.K != base.K || doc.Budget != 120 {
		t.Fatalf("echo fields wrong: %+v (base %+v)", doc, base)
	}
	if len(doc.Bandwidth) == 0 {
		t.Fatal("empty bandwidth vector in plan document")
	}

	// Planner override hits the other key.
	status, body, _ = get(t, srv.URL+"/plan?budget=120&planner="+core.KindLPNoFilter)
	if status != http.StatusOK {
		t.Fatalf("planner override: status %d, body %s", status, body)
	}

	// An unescaped '+' decodes to a space; the service's own default
	// kind must still resolve, and echo in the catalog's spelling.
	for _, tc := range []struct{ query, echo string }{
		{"lp+lf", core.KindLPFilter},
		{"LP%2BLF", core.KindLPFilter},
		{"greedy", core.KindGreedy},
	} {
		status, body, _ = get(t, srv.URL+"/plan?budget=120&planner="+tc.query)
		if status != http.StatusOK {
			t.Fatalf("planner=%s: status %d, body %s", tc.query, status, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
		if doc.Planner != tc.echo {
			t.Fatalf("planner=%s echoed %q, want %q", tc.query, doc.Planner, tc.echo)
		}
	}
}

func TestHTTPPlanBadRequests(t *testing.T) {
	svc, srv, _ := newHTTPFixture(t, serve.Options{QueueDepth: 32})
	defer svc.Close()

	for _, tc := range []struct{ name, query string }{
		{"missing budget", ""},
		{"zero budget", "budget=0"},
		{"negative budget", "budget=-5"},
		{"garbage budget", "budget=abc"},
		{"bad k", "budget=50&k=two"},
		{"unknown planner kind", "budget=50&planner=oracle"},
		{"wrong k for snapshot", "budget=50&k=9"},
		{"bad deadline", "budget=50&deadline_ms=-1"},
		{"NaN budget", "budget=NaN"},
		{"infinite budget", "budget=Inf"},
		{"NaN budget, greedy", "budget=NaN&planner=greedy"},
		{"NaN deadline", "budget=50&deadline_ms=NaN"},
		{"infinite deadline", "budget=50&deadline_ms=Inf"},
		{"overflowing deadline", "budget=50&deadline_ms=1e300"},
	} {
		status, body, _ := get(t, srv.URL+"/plan?"+tc.query)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
		}
	}
}

func TestHTTPShedStatuses(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	clock := newFakeClock(time.Microsecond)
	svc, err := serve.New(serve.Options{
		QueueDepth: 1, Now: clock.Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	base := serve.Key{Network: "test", Planner: "blocking", K: 1}
	collector := telemetry.NewCollector(reg, 64)
	collector.Sample(0)
	srv := httptest.NewServer(obs.Handler(reg, serve.Endpoints(svc, base, collector)...))
	defer srv.Close()

	// Pin the planner and fill the 1-deep queue.
	stall := submitAsync(svc, base, 1)
	<-src.started
	queued := submitAsync(svc, base, 2)
	waitGauge(t, reg.Gauge("serve.queue_depth"), 1)

	// Queue full -> 503 with Retry-After.
	status, body, hdr := get(t, srv.URL+"/plan?budget=3")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("full queue: missing Retry-After header")
	}
	// Readiness mirrors the saturation.
	if status, _, _ := get(t, srv.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz at capacity: status %d, want 503", status)
	}

	go drain(src)
	if r := <-stall; r.err != nil {
		t.Fatal(r.err)
	}
	if r := <-queued; r.err != nil {
		t.Fatal(r.err)
	}
	if status, _, _ := get(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after drain: status %d, want 200", status)
	}
	if status, _, _ := get(t, srv.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", status)
	}

	// Stale deadline -> 429. The fake clock advances 1µs per read, so
	// a 0.001ms deadline computed at admission is already past by
	// dispatch.
	status, body, _ = get(t, srv.URL+"/plan?budget=5&deadline_ms=0.001")
	if status != http.StatusTooManyRequests {
		t.Fatalf("stale deadline: status %d, body %s", status, body)
	}

	// Closed -> 503, and readyz goes unready for good.
	svc.Close()
	status, _, hdr = get(t, srv.URL+"/plan?budget=7")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("closed: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("closed: missing Retry-After header")
	}
	if status, _, _ := get(t, srv.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: status %d, want 503", status)
	}
}

func TestHTTPReadyzRequiresTick(t *testing.T) {
	src := newBlockingSource(t)
	reg := obs.NewRegistry()
	svc, err := serve.New(serve.Options{
		QueueDepth: 4, Now: newFakeClock(time.Microsecond).Now, Obs: reg,
	}, sourceProvider(src))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go drain(src)
		svc.Close()
	}()
	base := serve.Key{Network: "test", Planner: "blocking", K: 1}
	collector := telemetry.NewCollector(reg, 64)
	srv := httptest.NewServer(obs.Handler(reg, serve.Endpoints(svc, base, collector)...))
	defer srv.Close()

	if status, _, _ := get(t, srv.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first tick: status %d, want 503", status)
	}
	collector.Sample(0)
	if status, _, _ := get(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after tick: status %d, want 200", status)
	}
}
