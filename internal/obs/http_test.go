package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExpositionHeaders pins the response headers of the registry
// exposition: a correct Content-Type and Cache-Control: no-store, so no
// intermediary ever serves a stale exposition of a live run.
func TestExpositionHeaders(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(1)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("Cache-Control = %q, want %q", got, "no-store")
	}
}

// TestHandlerExtraEndpoints checks injected endpoints (the telemetry
// surfaces) mount next to the registry exposition.
func TestHandlerExtraEndpoints(t *testing.T) {
	h := Handler(NewRegistry(), Endpoint{
		Path: "/healthz",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("ok\n"))
		}),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	// The registry surfaces must still be there alongside the extras.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics with extras = %d", resp.StatusCode)
	}
}

// TestHTTPHandler drives the live endpoints end to end, including the
// nil-registry case the CLIs hit when -listen is set without metrics.
func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.messages").Add(7)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "sim_messages 7") {
		t.Errorf("metrics body missing counter:\n%s", body)
	}
	nilSrv := httptest.NewServer(Handler(nil))
	defer nilSrv.Close()
	resp, err := http.Get(nilSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("nil registry /metrics = %d", resp.StatusCode)
	}
}

// TestServeLifecycle covers the eager-listen contract: ":0" binds and
// reports a real address, stop shuts the listener down, and a bad
// address fails up front.
func TestServeLifecycle(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("serve bound %s but GET failed: %v", addr, err)
	}
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if _, _, err := Serve("256.256.256.256:0", nil); err == nil {
		t.Error("bad address did not fail eagerly")
	}
}
