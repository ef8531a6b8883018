package serve_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"prospector/internal/core"
	"prospector/internal/serve"
)

// FuzzPlanParams drives /plan with arbitrary planner, k, budget and
// deadline_ms texts, placed in the query string as they come (so an
// unescaped '+' arrives as a space, and a stray '&' starts a new
// parameter). The handler must never panic or answer 500: it answers
// 200, or 400, 429 or 503, and 200 only when the parameters it
// decoded (the same url.ParseQuery reading, repeated here) name a
// known planner kind at the served k, a finite positive budget, and a
// deadline that is absent or a number of milliseconds in range. The
// seed corpus lives in testdata/fuzz/FuzzPlanParams.
func FuzzPlanParams(f *testing.F) {
	cfg := makeConfig(f, 13, 20, 4, 5)
	svc, err := serve.New(serve.Options{QueueDepth: 8, Now: time.Now}, snapshotProvider(cfg))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	base := serve.Key{Network: "n20", Gen: cfg.Samples.Gen(), Planner: core.KindLPFilter, K: cfg.K}
	h := serve.Handler(svc, base)
	known := map[string]bool{core.KindGreedy: true, core.KindLPNoFilter: true, core.KindLPFilter: true, core.KindProof: true}

	f.Fuzz(func(t *testing.T, planner, k, budget, deadline string) {
		raw := "planner=" + planner + "&k=" + k + "&budget=" + budget + "&deadline_ms=" + deadline
		req := httptest.NewRequest(http.MethodGet, "/plan", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("%q: status %d: %s", raw, rec.Code, rec.Body)
		}
		q, _ := url.ParseQuery(raw)
		kind, kk := base.Planner, base.K
		if p := q.Get("planner"); p != "" {
			kind = core.CanonicalKind(p)
		}
		if ks := q.Get("k"); ks != "" {
			if kk, err = strconv.Atoi(ks); err != nil {
				t.Fatalf("%q: 200 for k %q", raw, ks)
			}
		}
		if !known[kind] || kk != cfg.K {
			t.Fatalf("%q: 200 for planner %q, k %d (serving %d)", raw, kind, kk, cfg.K)
		}
		b, err := strconv.ParseFloat(q.Get("budget"), 64)
		if err != nil || !(b > 0) || math.IsInf(b, 1) {
			t.Fatalf("%q: 200 for budget %q", raw, q.Get("budget"))
		}
		if ds := q.Get("deadline_ms"); ds != "" {
			if ms, err := strconv.ParseFloat(ds, 64); err != nil || !(ms >= 0) || math.IsInf(ms, 1) {
				t.Fatalf("%q: 200 for deadline_ms %q", raw, ds)
			}
		}
	})
}
