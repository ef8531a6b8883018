package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"time"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/serve"
	"prospector/internal/sim"
	"prospector/internal/workload"
)

// spec defines one benchmark workload. Every workload is a closed loop:
// each client sends its next op only when the previous one returned.
// BENCHMARK.json gives each workload's reason.
type spec struct {
	name string
	// clients is the number of client goroutines.
	clients int
	// quality is how many leading ops of each client define the
	// per-layer lp.* counts and, unless the scenario is a targetQuality,
	// energy_mj_per_epoch and accuracy, so a seed repeats them exactly
	// however fast the host is. Every client runs at least this many
	// ops.
	quality int
	setup   func(seed int64, t *tracing) (scenario, error)
}

// scenario is one set-up workload instance.
type scenario interface {
	// prepare does the untimed work that follows set-up: reference
	// plans and their quality.
	prepare() error
	// op runs client c's i-th op. A returned error (including a failed
	// output check) counts the op as failed.
	op(c, i int) (opStat, error)
	close()
}

// targetQuality is implemented by scenarios whose quality belongs to
// the answers they check rather than to the ops they happened to run:
// energy_mj_per_epoch and accuracy are then the mean over the targets.
type targetQuality interface {
	quality() (energy, acc float64)
}

var workloads = []*spec{
	{name: "window_replan", clients: 1, quality: 400, setup: setupWindowReplan},
	{name: "standing_sim", clients: 1, quality: 20000, setup: setupStandingSim},
	{name: "serve_light", clients: 2, quality: 2000, setup: setupServeLight},
	{name: "serve_heavy", clients: 1, quality: 2000, setup: setupServeHeavy},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// deploymentSeed fixes every workload's sensor field and its past:
// node placement, the spanning tree, each node's reading distribution,
// and the sample window the planner starts from. The run's seed drives
// only what happens next (fresh readings, budget order, radio loss
// draws). A random deployment moves LP cost up to tenfold (41 to 411
// ms per cold LP+LF plan at 60 nodes over deployment seeds 1 to 10),
// and a random starting window moves the set-up's cold solve by half,
// which no run length averages out; fixing both keeps each metric's
// spread across seeds inside its bound. This deployment gives a
// 60-node tree of depth 6 whose epoch cost sits at the low middle of
// that range.
const deploymentSeed = 9

// field is a deployed network with its reading source and costs.
type field struct {
	net   *network.Network
	src   *workload.GaussianField
	costs *plan.Costs
	k     int
	// naive is NAIVE-k's collection cost, the scale budgets are given in.
	naive float64
	// streams seeds every other seeded input of the run.
	streams *rand.Rand
}

// newField deploys n nodes and fills a window of past samples, both
// from deploymentSeed, then points the field's readings at the run's
// seed.
func newField(n, k, window int, seed int64, t *tracing, sp *obs.Span) (*field, *sample.Set, error) {
	rng := rand.New(rand.NewSource(deploymentSeed))
	var net *network.Network
	if err := t.layer(sp, "network.build", func() (err error) {
		net, err = network.Build(network.DefaultBuildConfig(n), rng)
		return err
	}); err != nil {
		return nil, nil, err
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(n), rng)
	if err != nil {
		return nil, nil, err
	}
	set, err := sample.NewSet(n, k, window)
	if err != nil {
		return nil, nil, err
	}
	if err := t.layer(sp, "sample.add", func() error { return set.AddAll(workload.Draw(src, window)) }); err != nil {
		return nil, nil, err
	}
	streams := rand.New(rand.NewSource(seed))
	rng.Seed(streams.Int63()) // the field keeps drawing its readings from rng
	costs := plan.NewCosts(net, energy.DefaultModel())
	naive, err := core.NaiveKPlan(net, k)
	if err != nil {
		return nil, nil, err
	}
	return &field{net: net, src: src, costs: costs, k: k,
		naive: naive.CollectionCost(net, costs), streams: streams}, set, nil
}

// --- window_replan ---------------------------------------------------

type windowReplan struct {
	t       *tracing
	f       *field
	set     *sample.Set
	planner *core.LPFilter
	budget  float64
	simCfg  sim.Config // installs the plan
	oracle  sim.Config // lossless and uninstrumented: the exec cross-check
	env     exec.Env
}

func setupWindowReplan(seed int64, t *tracing) (scenario, error) {
	sp := t.begin("setup")
	defer t.end(sp)
	f, set, err := newField(60, 10, 15, seed, t, sp)
	if err != nil {
		return nil, err
	}
	w := &windowReplan{t: t, f: f, set: set, budget: 0.3 * f.naive,
		simCfg: sim.DefaultConfig(f.net), oracle: sim.DefaultConfig(f.net),
		env: exec.Env{Net: f.net, Costs: f.costs, Obs: t.registry()}}
	w.simCfg.Obs = t.registry()
	if w.planner, err = core.NewLPFilter(t.planner(core.Config{Net: f.net, Costs: f.costs, Samples: set, K: f.k})); err != nil {
		return nil, err
	}
	return w, t.layer(sp, "core.plan", func() error {
		_, err := w.planner.Plan(w.budget)
		return err
	})
}

func (w *windowReplan) prepare() error { return nil }
func (w *windowReplan) close()         {}

// op is one query epoch: the newest reading joins the window, the
// planner re-plans, the plan is installed, and it runs on fresh
// readings.
func (w *windowReplan) op(_, _ int) (opStat, error) {
	fresh, truth := w.f.src.Next(), w.f.src.Next()
	var (
		p    *plan.Plan
		inst *sim.Result
		res  *exec.Result
	)
	sp := w.t.begin("epoch")
	start := time.Now()
	err := w.t.layer(sp, "sample.add", func() error { return w.set.Add(fresh) })
	if err == nil {
		err = w.t.layer(sp, "core.plan", func() (err error) {
			p, err = w.planner.Plan(w.budget)
			return err
		})
	}
	if err == nil {
		err = w.t.layer(sp, "sim.install", func() (err error) {
			inst, err = sim.RunInstall(w.simCfg, p)
			return err
		})
	}
	if err == nil {
		err = w.t.layer(sp, "exec.run", func() (err error) {
			res, err = exec.Run(w.env, p, truth)
			return err
		})
	}
	st := opStat{lat: time.Since(start)}
	if err != nil {
		w.t.end(sp)
		return st, err
	}
	w.t.end(sp, obs.FFloat("install_mj", inst.Ledger.Total()))
	st.energy = inst.Ledger.Total() + res.Ledger.Total()
	st.acc = res.Accuracy(truth, w.f.k)
	return st, w.check(p, res, truth)
}

// check holds each plan to its budget and the analytic executor to a
// lossless simulation of the same plan and readings.
func (w *windowReplan) check(p *plan.Plan, res *exec.Result, truth []float64) error {
	if c := p.CollectionCost(w.f.net, w.f.costs); c > w.budget*(1+1e-9) {
		return fmt.Errorf("window_replan: plan collection cost %.6f mJ exceeds the budget %.6f mJ", c, w.budget)
	}
	got, err := sim.Run(w.oracle, p, truth)
	if err != nil {
		return fmt.Errorf("window_replan: lossless sim: %w", err)
	}
	if !slices.Equal(got.Returned, res.Returned) || got.Proven != res.Proven ||
		got.Ledger.Messages != res.Ledger.Messages ||
		math.Abs(got.Ledger.Total()-res.Ledger.Total()) > 1e-9 {
		return fmt.Errorf("window_replan: lossless sim disagrees with exec: %d values, %d proven, %d msgs, %.9f mJ vs %d, %d, %d, %.9f mJ",
			len(got.Returned), got.Proven, got.Ledger.Messages, got.Ledger.Total(),
			len(res.Returned), res.Proven, res.Ledger.Messages, res.Ledger.Total())
	}
	return nil
}

// --- standing_sim ----------------------------------------------------

type standingSim struct {
	t    *tracing
	f    *field
	plan *plan.Plan
	cfg  sim.Config
}

func setupStandingSim(seed int64, t *tracing) (scenario, error) {
	sp := t.begin("setup")
	defer t.end(sp)
	f, set, err := newField(200, 20, 8, seed, t, sp)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewLPFilter(t.planner(core.Config{Net: f.net, Costs: f.costs, Samples: set, K: f.k}))
	if err != nil {
		return nil, err
	}
	s := &standingSim{t: t, f: f, cfg: sim.DefaultConfig(f.net)}
	if err := t.layer(sp, "core.plan", func() (err error) {
		s.plan, err = pl.Plan(0.3 * f.naive)
		return err
	}); err != nil {
		return nil, err
	}
	loss := make([]float64, f.net.Size())
	for v := 1; v < len(loss); v++ {
		loss[v] = 0.05
	}
	s.cfg.LossProb = loss
	s.cfg.InterferenceRange = 10
	s.cfg.Rng = rand.New(rand.NewSource(f.streams.Int63()))
	s.cfg.Obs = t.registry()
	return s, nil
}

func (s *standingSim) prepare() error { return nil }
func (s *standingSim) close()         {}

func (s *standingSim) op(_, _ int) (opStat, error) {
	truth := s.f.src.Next()
	var res *sim.Result
	sp := s.t.begin("epoch")
	start := time.Now()
	err := s.t.layer(sp, "sim.run", func() (err error) {
		res, err = sim.Run(s.cfg, s.plan, truth)
		return err
	})
	st := opStat{lat: time.Since(start)}
	s.t.end(sp)
	if err != nil {
		return st, err
	}
	st.energy = res.Ledger.Total()
	st.acc = exec.Accuracy(res.Returned, truth, s.f.k)
	spent := 0.0
	for _, e := range res.NodeEnergy {
		spent += e
	}
	if math.Abs(spent-res.Ledger.Total()) > 1e-9 {
		return st, fmt.Errorf("standing_sim: ledger total %.9f mJ but the radios spent %.9f mJ", res.Ledger.Total(), spent)
	}
	return st, nil
}

// --- serve_light and serve_heavy ------------------------------------

// planDoc is the part of the /plan response document the checks read.
type planDoc struct {
	Kind      string `json:"kind"`
	Bandwidth []int  `json:"bandwidth"`
	Chosen    []bool `json:"chosen"`
}

// target is one (planner, budget) a serve workload requests.
type target struct {
	kind   string
	budget float64
	url    string
	ref    *plan.Plan // the reference plan every answer must equal
	// energy (mJ per epoch) and acc are ref's quality on the held-out
	// epochs.
	energy, acc float64
}

type serveScenario struct {
	t       *tracing
	f       *field
	cfg     core.Config // uninstrumented: the references' planners
	svc     *serve.Service
	srv     *httptest.Server
	client  *http.Client
	targets []target
	// next[c] picks client c's next target; each client calls only its
	// own.
	next []func() int
}

// evalEpochs is how many held-out epochs rate each reference plan.
const evalEpochs = 32

// startServe stands up the plan service over snapshots of the given
// planner kinds, behind a real HTTP server, and opens one pool key
// per kind. The workload requests every kind at every budget
// fraction (of NAIVE-k's collection cost); targets are kind-major.
func startServe(seed int64, t *tracing, kinds []string, fracs []float64) (*serveScenario, error) {
	sp := t.begin("setup")
	defer t.end(sp)
	f, set, err := newField(60, 10, 15, seed, t, sp)
	if err != nil {
		return nil, err
	}
	s := &serveScenario{t: t, f: f, cfg: core.Config{Net: f.net, Costs: f.costs, Samples: set, K: f.k}}
	snaps := map[string]*core.Snapshot{}
	for _, kind := range kinds {
		if err := t.layer(sp, "core.snapshot", func() (err error) {
			snaps[kind], err = core.NewSnapshot(t.planner(s.cfg), kind)
			return err
		}); err != nil {
			return nil, err
		}
	}
	base := serve.Key{Network: "bench", Gen: set.Gen(), Planner: kinds[0], K: f.k}
	err = t.layer(sp, "serve.start", func() (err error) {
		s.svc, err = serve.New(serve.Options{Now: time.Now, Obs: t.registry()}, func(key serve.Key) (serve.PlannerSource, error) {
			if snap := snaps[key.Planner]; snap != nil && key.K == base.K && key.Gen == base.Gen {
				return snap, nil
			}
			return nil, fmt.Errorf("no snapshot for %v", key)
		})
		if err != nil {
			return err
		}
		s.srv = httptest.NewServer(t.handler(serve.Handler(s.svc, base)))
		s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	for _, kind := range kinds {
		for _, fr := range fracs {
			b := fr * f.naive
			// The planner value must be escaped: an unescaped lp+lf
			// decodes to "lp lf".
			s.targets = append(s.targets, target{kind: kind, budget: b,
				url: s.srv.URL + "/plan?planner=" + url.QueryEscape(kind) + "&budget=" + strconv.FormatFloat(b, 'g', -1, 64)})
		}
	}
	// One request per kind opens its pool key: the service stamps the
	// key's planner and starts its worker.
	for i := range kinds {
		var doc planDoc
		if err := t.layer(sp, "serve.warmup", func() error { return s.get(s.targets[i*len(fracs)].url, &doc) }); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// setupServeLight: each of the 2 clients alternates greedy and lp-lf
// requests and cycles through 8 budget fractions in its own seeded
// order, so budgets repeat and may coalesce.
func setupServeLight(seed int64, t *tracing) (scenario, error) {
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	s, err := startServe(seed, t, []string{core.KindGreedy, core.KindLPNoFilter}, fracs)
	if err != nil {
		return nil, err
	}
	for c := 0; c < 2; c++ {
		order := s.f.streams.Perm(len(fracs))
		i := 0
		s.next = append(s.next, func() int {
			tg := (i%2)*len(fracs) + order[(i/2)%len(fracs)]
			i++
			return tg
		})
	}
	return s, nil
}

// heavyStep bounds serve_heavy's budget walk to 8 of its 256 values a
// step. Long downward jumps break the warm chain far more often: over
// uniformly random budgets in the same range, 5% of requests hit the
// simplex iteration limit and fall back to a presolved cold solve of
// 0.2 to 2.4 s, so a handful of them decided every number of a run.
const heavyStep = 8

// setupServeHeavy: one client whose budget opens with one chain break,
// then takes a seeded random walk over 256 fractions in [0.05, 0.8],
// never standing still, so every request is a fresh non-monotone warm
// re-solve.
//
// The opening break is the top of the range, then the bottom. The
// set-up's warm-up request leaves the chain at the bottom, so the warm
// re-solve back down from the top starts from the same basis on every
// seed; it hits the simplex iteration limit and falls back to the
// presolved cold solve, about 1.3 s. The chain-break fallback thus runs
// exactly once within the first quality ops, where lp.iteration_limits
// and lp.presolve_runs are counted, and its one slow op moves neither
// latency percentile nor the median throughput window.
func setupServeHeavy(seed int64, t *tracing) (scenario, error) {
	fracs := make([]float64, 256)
	for i := range fracs {
		fracs[i] = 0.05 + 0.75*float64(i)/float64(len(fracs)-1)
	}
	s, err := startServe(seed, t, []string{core.KindLPFilter}, fracs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.f.streams.Int63()))
	pos := rng.Intn(len(fracs))
	opening := []int{len(fracs) - 1, 0}
	s.next = []func() int{func() int {
		if len(opening) > 0 {
			tg := opening[0]
			opening = opening[1:]
			return tg
		}
		cur := pos
		for {
			step := rng.Intn(2*heavyStep) - heavyStep
			if step >= 0 {
				step++
			}
			if next := pos + step; next >= 0 && next < len(fracs) {
				pos = next
				return cur
			}
		}
	}}
	return s, nil
}

// prepare walks each kind's budgets in ascending order on a fresh
// planner from its own snapshot, giving the reference plan for every
// target, and rates each reference plan on held-out epochs.
func (s *serveScenario) prepare() error {
	eval := workload.Draw(s.f.src, evalEpochs)
	env := exec.Env{Net: s.f.net, Costs: s.f.costs}
	planners := map[string]core.Planner{}
	order := make([]int, len(s.targets))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(s.targets[a].budget, s.targets[b].budget)
	})
	for _, i := range order {
		tg := &s.targets[i]
		pl := planners[tg.kind]
		if pl == nil {
			snap, err := core.NewSnapshot(s.cfg, tg.kind)
			if err != nil {
				return err
			}
			if pl, err = snap.NewPlanner(); err != nil {
				return err
			}
			planners[tg.kind] = pl
		}
		p, err := pl.Plan(tg.budget)
		if err != nil {
			return fmt.Errorf("reference %s plan at %g mJ: %w", tg.kind, tg.budget, err)
		}
		tg.ref = p
		for _, vals := range eval {
			res, err := exec.Run(env, p, vals)
			if err != nil {
				return err
			}
			tg.energy += res.Ledger.Total() / evalEpochs
			tg.acc += res.Accuracy(vals, s.f.k) / evalEpochs
		}
	}
	return nil
}

// quality is the mean over every target of its reference plan's
// quality. Each answer is checked equal to its target's reference, so
// this is the quality of what the service returns, with every budget
// the workload asks for weighted alike.
func (s *serveScenario) quality() (energy, acc float64) {
	for _, tg := range s.targets {
		energy += tg.energy
		acc += tg.acc
	}
	n := float64(len(s.targets))
	return energy / n, acc / n
}

// op is one /plan round trip: request, decode, and the check that the
// answer is the reference plan for that planner and budget.
func (s *serveScenario) op(c, _ int) (opStat, error) {
	tg := &s.targets[s.next[c]()]
	var doc planDoc
	sp := s.t.begin("request")
	start := time.Now()
	err := s.t.layer(nil, "serve.request", func() error { return s.get(tg.url, &doc) })
	st := opStat{lat: time.Since(start)}
	s.t.end(sp)
	if err != nil {
		return st, err
	}
	if doc.Kind != tg.ref.Kind.String() || !slices.Equal(doc.Bandwidth, tg.ref.Bandwidth) || !slices.Equal(doc.Chosen, tg.ref.Chosen) {
		return st, fmt.Errorf("%s at %g mJ answered %s %v %v, the reference plan is %s %v %v",
			tg.kind, tg.budget, doc.Kind, doc.Bandwidth, doc.Chosen, tg.ref.Kind, tg.ref.Bandwidth, tg.ref.Chosen)
	}
	return st, nil
}

func (s *serveScenario) get(u string, doc *planDoc) error {
	resp, err := s.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
		return fmt.Errorf("GET %s: %w", u, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	return err
}

func (s *serveScenario) close() {
	if s.srv != nil {
		s.client.CloseIdleConnections()
		s.srv.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
}
