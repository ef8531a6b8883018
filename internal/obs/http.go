package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Live exposition. Handler serves a registry over HTTP so long sweeps
// can be watched while they run: /metrics is the Prometheus text
// exposition (format 0.0.4), the same bytes -metrics writes at exit.
// Each scrape takes a fresh snapshot; the registry stays lock-free for
// writers in between. Responses carry Cache-Control: no-store — this
// is a live document, and a cached one would silently report a stale
// run.

// Endpoint is one extra HTTP surface mounted next to the registry
// exposition, e.g. the telemetry endpoints (/healthz, /readyz,
// /debug/telemetry) from internal/obs/telemetry — which this package
// cannot name without an import cycle, so callers inject them.
type Endpoint struct {
	Path    string
	Handler http.Handler
}

// Handler returns an HTTP handler exposing the registry plus any extra
// endpoints. A nil registry serves empty (but well-formed) documents,
// so the endpoint can be wired up before deciding whether metrics are
// on.
func Handler(reg *Registry, extra ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		// The snapshot is already in memory; an exposition write error
		// just means the scraper hung up.
		_ = reg.Snapshot().WritePrometheus(w)
	})
	for _, e := range extra {
		mux.Handle(e.Path, e.Handler)
	}
	return mux
}

// Serve starts the exposition server on addr (e.g. ":9090"). It
// listens eagerly — a bad address fails the run up front — then serves
// in the background for the lifetime of the process. It returns the
// bound address (useful with ":0") and a stop function that shuts the
// server down and waits for the serve goroutine to exit, so callers
// (and leak-sensitive tests) observe a clean teardown.
func Serve(addr string, reg *Registry, extra ...Endpoint) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, extra...)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed on Close; anything else only
		// costs the exposition endpoint, never the run.
		_ = srv.Serve(ln)
	}()
	stop := func() error {
		err := srv.Close()
		<-done
		return err
	}
	return ln.Addr().String(), stop, nil
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format: metric names sanitized to [a-zA-Z0-9_:], one # TYPE line per
// family, histograms expanded into cumulative _bucket/_sum/_count
// series. A histogram that rejected NaN observations also gets a
// <family>_nan_observations counter. Families are sorted, so the output
// is deterministic. A nil snapshot writes nothing.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	type series struct {
		name string // sanitized family name
		kind string // counter | gauge | histogram
		key  string // registry series name
		val  string // rendered value; unused for histograms
	}
	ss := make([]series, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k, v := range s.Counters {
		ss = append(ss, series{sanitizeMetricName(k), "counter", k, strconv.FormatInt(v, 10)})
	}
	for k, v := range s.Gauges {
		ss = append(ss, series{sanitizeMetricName(k), "gauge", k, formatFloat(v)})
	}
	for k, h := range s.Histograms {
		name := sanitizeMetricName(k)
		ss = append(ss, series{name: name, kind: "histogram", key: k})
		if h.NaNCount > 0 {
			ss = append(ss, series{name + "_nan_observations", "counter", k, strconv.FormatInt(h.NaNCount, 10)})
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].name != ss[j].name {
			return ss[i].name < ss[j].name
		}
		return ss[i].key < ss[j].key
	})
	for i, sr := range ss {
		// Distinct registry names can sanitize to one family; it gets
		// one TYPE line.
		if i == 0 || sr.name != ss[i-1].name {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sr.name, sr.kind); err != nil {
				return err
			}
		}
		var err error
		if sr.kind == "histogram" {
			err = writePromHistogram(w, sr.name, s.Histograms[sr.key])
		} else {
			_, err = fmt.Fprintf(w, "%s %s\n", sr.name, sr.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) error {
	cum := int64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}

// sanitizeMetricName maps a registry name onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:], replacing everything else (dots,
// dashes) with underscores.
func sanitizeMetricName(name string) string {
	ok := func(r rune, first bool) bool {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' {
			return true
		}
		return !first && r >= '0' && r <= '9'
	}
	var b strings.Builder
	for i, r := range name {
		if ok(r, i == 0) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
