package telemetry

import (
	"encoding/json"
	"net/http"

	"prospector/internal/obs"
)

// Handler serves the collector's windowed series as JSON (the
// /debug/telemetry document: window shape, tick times, and every
// derived series oldest-first). Live data is never cacheable.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Export())
	})
}

// HealthHandler answers liveness probes: the process is up and serving.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyHandler answers readiness probes against the collector: 503
// until the first tick has populated the windows, 200 after. A process
// that is alive but has not yet sampled has nothing meaningful to
// serve from /debug/telemetry.
func ReadyHandler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if c.Ticks() == 0 {
			http.Error(w, "no samples yet", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
}

// Endpoints returns the live-telemetry HTTP surfaces, shaped for
// obs.Handler / Session.Serve to mount next to /metrics.
func Endpoints(c *Collector) []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "/healthz", Handler: HealthHandler()},
		{Path: "/readyz", Handler: ReadyHandler(c)},
		{Path: "/debug/telemetry", Handler: c.Handler()},
	}
}
