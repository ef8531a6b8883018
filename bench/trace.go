package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"prospector/internal/core"
	"prospector/internal/lp"
	"prospector/internal/obs"
	"prospector/internal/traceanalysis"
)

// tracing holds the traced run's instruments: a registry handed to the
// program's existing counters, and the bench's own spans around each
// layer call, buffered in memory and written out when the run ends.
// Span times are wall-clock microseconds since the run started. The
// tracer is never handed to the program. A nil *tracing is the
// end-to-end run, where layer calls go straight to the program.
type tracing struct {
	reg  *obs.Registry
	tr   *obs.Tracer
	buf  bytes.Buffer
	t0   time.Time
	ctx  context.Context
	left atomic.Int64 // root spans still to record; see traceOps
}

// traceOps caps the ops and setups one traced run records, so a fast
// workload's trace stays a few MB; later ops still run, labelled and
// counted, just without spans.
const traceOps = 20000

func newTracing() *tracing {
	t := &tracing{reg: obs.NewRegistry(), t0: time.Now(), ctx: context.Background()}
	t.tr = obs.NewBufferedTracer(&t.buf)
	t.left.Store(traceOps)
	return t
}

func (t *tracing) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// registry is what the program's Obs fields get: nil in the end-to-end run.
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// planner returns cfg with the traced run's registry and an injected
// clock, so the planners publish core.* and lp.* including
// lp.solve_seconds.
func (t *tracing) planner(cfg core.Config) core.Config {
	if t != nil {
		cfg.Obs = t.reg
		cfg.LP = lp.Options{Now: time.Now}
	}
	return cfg
}

// begin opens the root span of one setup, epoch or request; nil when
// untraced or once traceOps root spans have been recorded.
func (t *tracing) begin(name string) *obs.Span {
	if t == nil || t.left.Add(-1) < 0 {
		return nil
	}
	return t.tr.StartSpan(nil, name, t.us(time.Now()))
}

// end closes a root span from begin; nil-safe.
func (t *tracing) end(sp *obs.Span, fields ...obs.Field) {
	if sp != nil {
		sp.End(t.us(time.Now()), fields...)
	}
}

// layer runs f as one call into the module that prefixes name
// ("core.plan" is module core): under the pprof label layer=<module>
// and, when sp is non-nil, as a child span of sp.
func (t *tracing) layer(sp *obs.Span, name string, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	var err error
	pprof.Do(t.ctx, pprof.Labels("layer", module(name)), func(context.Context) { err = f() })
	sp.Span(name, t.us(start), t.us(time.Now()))
	return err
}

// handler labels the serving side of each request layer=serve. Pool
// workers are started by the program from inside a request, so they
// inherit the label.
func (t *tracing) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pprof.Do(r.Context(), pprof.Labels("layer", "serve"), func(ctx context.Context) {
			h.ServeHTTP(w, r.WithContext(ctx))
		})
	})
}

func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	return m
}

// finish writes the buffered trace to dir/trace-<workload>.jsonl and
// reads it back, so the per-layer numbers come from the file a reader
// can inspect with tracetool.
func (t *tracing) finish(dir, workload string) (*traceanalysis.Trace, string, error) {
	if err := t.tr.Flush(); err != nil {
		return nil, "", fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	if err := os.WriteFile(path, t.buf.Bytes(), 0o644); err != nil {
		return nil, "", err
	}
	t.buf = bytes.Buffer{}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	tr, err := traceanalysis.Parse(f)
	if err != nil {
		return nil, "", fmt.Errorf("read back %s: %w", path, err)
	}
	return tr, path, nil
}

// attribution is a trace rolled up by layer.
type attribution struct {
	ops    int
	opMS   float64              // summed op span durations
	durs   map[string][]float64 // layer span durations by name
	setup  map[string][]float64 // set-up child span durations by name
	opNums map[string]float64   // summed numeric fields of op span ends
}

// attribute rolls the op roots (epoch, request) and set-up roots of a
// trace up by layer. The bench's layer spans have no children of their
// own, so a layer span's self time is its duration; what no layer span
// covers is the op's own.
func attribute(tr *traceanalysis.Trace) *attribution {
	a := &attribution{durs: map[string][]float64{}, setup: map[string][]float64{}, opNums: map[string]float64{}}
	for _, root := range tr.Roots {
		if root.Name == "setup" {
			for _, c := range root.Children {
				a.setup[c.Name] = append(a.setup[c.Name], c.Duration()/1e3)
			}
			continue
		}
		a.ops++
		a.opMS += root.Duration() / 1e3
		for _, c := range root.Children {
			a.durs[c.Name] = append(a.durs[c.Name], c.Duration()/1e3)
		}
		for k, v := range root.Nums {
			a.opNums[k] += v
		}
	}
	return a
}
