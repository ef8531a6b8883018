// Package experiments regenerates every figure and in-text result of
// the paper's evaluation (Section 5). Each harness builds the workload
// the paper describes, runs the competing planners over multiple
// trials, and reports the same series the paper plots; cmd/experiments
// renders them as text tables and CSV.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/stats"
	"prospector/internal/workload"
)

// Point is one measurement of a series.
type Point struct {
	X, Y float64
}

// Series is one algorithm's curve in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is a regenerated figure or study.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render formats the result as a fixed-width text table, one row per X
// value, one column per series.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "x = %s, y = %s\n", r.XLabel, r.YLabel)
	// Collect the union of X values.
	xsSet := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12.2f", x)
		for _, s := range r.Series {
			found := false
			for _, p := range s.Points {
				if p.X == x {
					fmt.Fprintf(&b, " %14.3f", p.Y)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV emits the result in long form: series,x,y.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "series,%s,%s\n", csvField(r.XLabel), csvField(r.YLabel)); err != nil {
		return err
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvField(s.Name), p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvField(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	return strings.ReplaceAll(s, "\n", " ")
}

// scenario bundles one trial's network, samples, planner config, and
// held-out evaluation epochs.
type scenario struct {
	cfg   core.Config
	env   exec.Env
	truth [][]float64
}

// approxPlanners builds the approximate planners the figures compare
// over cfg, in plotting order: Greedy, LP-LF, LP+LF.
func approxPlanners(cfg core.Config) ([]core.Planner, error) {
	var out []core.Planner
	for _, kind := range []string{core.KindGreedy, core.KindLPNoFilter, core.KindLPFilter} {
		pl, err := core.New(kind, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pl)
	}
	return out, nil
}

// gaussianScenario builds the synthetic-Gaussian setting of Figures 3
// and 4.
func gaussianScenario(nodes, k, nSamples, nEval int, stddev float64, rng *rand.Rand) (*scenario, error) {
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		return nil, err
	}
	gcfg := workload.DefaultGaussianConfig(nodes)
	src, err := workload.NewGaussianField(gcfg, rng)
	if err != nil {
		return nil, err
	}
	if stddev > 0 {
		src.SetStdDev(stddev)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, nSamples)); err != nil {
		return nil, err
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	return newScenario(
		core.Config{Net: net, Costs: costs, Samples: set, K: k},
		exec.Env{Net: net, Costs: costs},
		workload.Draw(src, nEval),
	), nil
}

// evaluate executes a plan over the held-out epochs, returning mean
// total energy (collection + trigger) and mean accuracy.
func (s *scenario) evaluate(p *plan.Plan) (meanCost, meanAcc float64, err error) {
	for _, vals := range s.truth {
		res, err := exec.Run(s.env, p, vals)
		if err != nil {
			return 0, 0, err
		}
		meanCost += res.Ledger.Total()
		meanAcc += res.Accuracy(vals, s.cfg.K)
	}
	n := float64(len(s.truth))
	return meanCost / n, 100 * meanAcc / n, nil
}

// naiveKCost returns the executed cost of NAIVE-k' on this scenario.
func (s *scenario) naiveKCost(k int) (float64, error) {
	p, err := core.NaiveKPlan(s.cfg.Net, k)
	if err != nil {
		return 0, err
	}
	cost, _, err := s.evaluate(p)
	return cost, err
}

// aggregate folds per-trial (x, y) pairs into one mean point per x.
type aggregate struct {
	byX map[float64]*[2][]float64 // x -> (costs, accs) across trials
}

func newAggregate() *aggregate { return &aggregate{byX: map[float64]*[2][]float64{}} }

func (a *aggregate) add(x, cost, acc float64) {
	e := a.byX[x]
	if e == nil {
		e = &[2][]float64{}
		a.byX[x] = e
	}
	e[0] = append(e[0], cost)
	e[1] = append(e[1], acc)
}

// xs returns the sweep values recorded so far, ascending: the point
// builders walk them in this order so no map order reaches a figure.
func (a *aggregate) xs() []float64 {
	xs := make([]float64, 0, len(a.byX))
	for x := range a.byX {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// costAccuracyPoints returns points (mean cost, mean accuracy), sorted
// by cost — the layout of the paper's cost-vs-accuracy figures.
func (a *aggregate) costAccuracyPoints() []Point {
	var pts []Point
	for _, x := range a.xs() {
		e := a.byX[x]
		pts = append(pts, Point{X: stats.Mean(e[0]), Y: stats.Mean(e[1])})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// xValuePoints returns points (x, mean accuracy) keyed by the sweep
// variable itself (variance, zone count, sample count...).
func (a *aggregate) xValuePoints() []Point {
	var pts []Point
	for _, x := range a.xs() {
		pts = append(pts, Point{X: x, Y: stats.Mean(a.byX[x][1])})
	}
	return pts
}

// xCostPoints returns points (x, mean cost).
func (a *aggregate) xCostPoints() []Point {
	var pts []Point
	for _, x := range a.xs() {
		pts = append(pts, Point{X: x, Y: stats.Mean(a.byX[x][0])})
	}
	return pts
}

// runTrials executes fn for each trial index concurrently (trials are
// independent by construction: each seeds its own RNG) and returns the
// first error. Aggregates touched by fn must be guarded by the
// returned locker convention: fn receives a lock to hold while
// recording results.
func runTrials(trials int, fn func(trial int, record func(func())) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		once sync.Once
		err  error
	)
	for trial := 0; trial < trials; trial++ {
		wg.Add(1)
		go func(trial int) {
			defer wg.Done()
			record := func(f func()) {
				mu.Lock()
				defer mu.Unlock()
				f()
			}
			if e := fn(trial, record); e != nil {
				once.Do(func() { err = e })
			}
		}(trial)
	}
	wg.Wait()
	return err
}
