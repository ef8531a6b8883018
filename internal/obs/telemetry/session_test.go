package telemetry

import (
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prospector/internal/obs"
)

// TestSessionMetricsMatchScrape pins the one-format contract: the
// -metrics file a session writes at Close is byte-identical to a
// /metrics scrape of the same registry, NaN tally included.
func TestSessionMetricsMatchScrape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	s, err := Start("test", Flags{Metrics: path})
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	reg.Counter("sim.messages").Add(4)
	reg.Gauge("sim.latency_seconds").Set(0.25)
	h := reg.Histogram("solve_s", []float64{0.1, 1})
	h.Observe(0.5)
	h.Observe(math.NaN())

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scraped, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(scraped) {
		t.Fatalf("-metrics file differs from /metrics:\nfile:\n%s\nscrape:\n%s", written, scraped)
	}
	for _, want := range []string{"sim_messages 4\n", "sim_latency_seconds 0.25\n",
		"solve_s_count 1\n", "solve_s_nan_observations 1\n"} {
		if !strings.Contains(string(written), want) {
			t.Errorf("exposition lacks %q:\n%s", want, written)
		}
	}
}

// TestSessionRegistryOnDemand pins when a session carries a registry:
// only when a surface consumes one, or when the caller asks.
func TestSessionRegistryOnDemand(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		f    Flags
		want bool
	}{
		{"no flags", Flags{}, false},
		{"trace only", Flags{Trace: filepath.Join(dir, "t.jsonl")}, false},
		{"manifest", Flags{Manifest: filepath.Join(dir, "m.json")}, true},
		{"flight", Flags{Flight: filepath.Join(dir, "f.jsonl")}, true},
		{"always", Flags{AlwaysRegistry: true}, true},
	} {
		s, err := Start("test", tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Registry() != nil; got != tc.want {
			t.Errorf("%s: registry present = %v, want %v", tc.name, got, tc.want)
		}
		if got := s.Monitor() != nil; got != tc.want {
			t.Errorf("%s: monitor present = %v, want %v", tc.name, got, tc.want)
		}
		if tc.f.Flight != "" && s.Tracer() == nil {
			t.Errorf("%s: -flight did not tap a tracer", tc.name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionFinishManifest: Finish writes the manifest after a
// successful run and skips it after a failed one, passing the run's
// error through.
func TestSessionFinishManifest(t *testing.T) {
	dir := t.TempDir()
	ok := filepath.Join(dir, "ok.json")
	s, err := Start("test", Flags{Manifest: ok})
	if err != nil {
		t.Fatal(err)
	}
	s.Registry().Counter("x").Add(1)
	if err := s.Finish(nil, map[string]string{"seed": "1"}, nil); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(ok); err != nil || !strings.Contains(string(b), `"x": 1`) {
		t.Fatalf("manifest after success: %v\n%s", err, b)
	}

	failed := filepath.Join(dir, "failed.json")
	s, err = Start("test", Flags{Manifest: failed})
	if err != nil {
		t.Fatal(err)
	}
	runErr := errors.New("run failed")
	if err := s.Finish(runErr, nil, nil); !errors.Is(err, runErr) {
		t.Fatalf("Finish = %v, want the run's error", err)
	}
	if _, err := os.Stat(failed); !os.IsNotExist(err) {
		t.Fatalf("manifest written after a failed run (stat: %v)", err)
	}
}

// TestSessionCloseIdempotent pins the Close contract: the second and
// later calls are no-ops — no double-written exposition, no
// double-closed files, no panic — including on a session with nothing
// enabled.
func TestSessionCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.txt")
	c, err := Start("test", Flags{Metrics: path})
	if err != nil {
		t.Fatal(err)
	}
	c.Registry().Counter("x").Add(1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+2, err)
		}
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(again) {
		t.Fatalf("repeated Close rewrote the exposition:\nfirst:\n%s\nafter:\n%s", first, again)
	}

	zero, err := Start("test", Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if err := zero.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zero.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCloseJoinsPprofServer pins the pprof-server teardown:
// Close must stop the server goroutine and wait for it, so an
// immediate Close (even racing the goroutine's ListenAndServe) neither
// panics nor leaks. The done channel is the same goleak-style
// termination signal the analyzer requires of every goroutine.
func TestSessionCloseJoinsPprofServer(t *testing.T) {
	c, err := Start("test", Flags{Pprof: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if c.pprofDone == nil {
		t.Fatal("pprof server path did not arm its done channel")
	}
	// Close before the server goroutine has necessarily even started
	// serving: it must still join cleanly.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.pprofDone:
		// joined: the goroutine exited before Close returned
	case <-time.After(5 * time.Second):
		t.Fatal("pprof server goroutine still running after Close")
	}
	// And again: idempotent on the server path too.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
