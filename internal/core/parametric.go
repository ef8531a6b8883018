package core

import (
	"fmt"
	"math"

	"prospector/internal/lp"
	"prospector/internal/plan"
)

// tieEps is the deterministic tie-break perturbation the LP builders
// put on objective-neutral variables (bandwidths, and candidate ties).
// The planners' programs are massively degenerate — many optimal
// vertices share one objective value but round to different plans —
// and which vertex a simplex run lands on depends on its pivot path,
// so a warm dual-recovery chain and a cold two-phase run could
// legitimately disagree. Index-distinct epsilons make the optimum a
// unique vertex, so every correct solve path returns the same plan
// (the warm-vs-cold differential tests rely on this). The value must
// exceed the solver's optimality tolerance (1e-7) to be acted on, and
// stay far below the objective's integral gaps (1.0) to never change
// which plans are genuinely optimal.
const tieEps = 1e-5

// roundSlack is how far below a half-integer an LP bandwidth may sit
// and still round up. A vertex where a bandwidth is exactly k+0.5 can
// come out of the solver as k+0.5 or one ulp below it, depending on the
// pivot path; without the slack that noise would pick the plan.
const roundSlack = 1e-9

// roundBandwidth rounds an LP bandwidth to the nearest integer, halves
// up, treating values within roundSlack below a half as the half.
func roundBandwidth(x float64) int { return int(math.Floor(x + 0.5 + roundSlack)) }

// program is what one LP planner kind adds to the shared parametric
// body (paramLP): how to build its model, how to edit it when the
// window slides, and how to round an optimum to a plan. The live
// model, its budget row and the fixed spend belong to the paramLP
// running the program; a program keeps only its own maps from nodes
// and edges to variables.
type program interface {
	// build assembles the model for cfg's window with the budget row's
	// right-hand side at budget - fixed. Everything else depends only
	// on (network, costs, samples, k), which is what makes the program
	// parametric in the budget. A nil model is the empty program: no
	// node below the root ranks in any sample, and the empty plan is
	// optimal without an LP.
	build(cfg Config, budget float64) (m *lp.Model, budgetRow int, fixed float64)
	// slide edits c's live model to follow the window's move d, and
	// solves nothing: the one warm solve of the Plan call that follows
	// carries the basis over the edits. rebuild asks for a fresh build
	// instead.
	slide(c *paramLP, d windowSlide) (rebuild bool, err error)
	// round turns the optimum x into a plan for budget, repaired and
	// filled unless cfg.DisableRepair; a nil x (the empty program)
	// rounds to the empty plan. It reads x only at support's variables.
	round(cfg Config, x []float64, budget float64) (*plan.Plan, error)
	// support appends to dst the variables round reads, which are all
	// a budget frontier piece keeps of x.
	support(dst []lp.VarID) []lp.VarID
}

// paramLP is the one body of the LP planners (LP-LF, LP+LF, PROOF):
// it owns the planner's program and serves Plan(budget) calls from it.
// The figure sweeps hammer one planner with a monotone budget axis
// over fixed (network, samples) state; the only thing that changes
// between calls is the budget row's right-hand side. So the planner
// builds its model once, keeps the solver workspace and the optimal
// basis, and serves each budget in one of two ways:
//
//   - a budget inside a piece of the planner's budget frontier (see
//     frontier) is interpolated from that piece, with no solve;
//   - any other budget gets an in-place SetRHS plus a warm re-solve
//     (dual recovery pivots instead of two cold simplex phases, and no
//     model canonicalization at all), and when the model was not
//     edited since the previous solve, that solve's basis is ranged
//     into a new frontier piece.
//
// Either way the rounding is the same. The frontier describes one
// model, so a slide or a rebuild clears it; a sliding window that
// plans one budget per window therefore never ranges.
//
// The cache is keyed on the identities of the window's samples
// (sample.Set.ID). When the adaptive scheme slides the window, the
// program follows it on the live model instead of rebuilding (see
// program.slide); a window with no sample left in common, and PROOF on
// any change, rebuild. A paramLP (and therefore any planner holding
// one) is not safe for concurrent use: calls may come from several
// goroutines only if something serializes them, as the serve tier's
// per-key mutex does; experiment trials each build their own planners.
type paramLP struct {
	cfg  Config
	name string
	prog program
	// model is the live program, nil for the empty one.
	model *lp.Model
	// budgetRow is the retained index of the cost row, or -1 when the
	// model has no budget row to update (degenerate all-zero costs).
	budgetRow int
	// fixed is the cost already committed before the budget row's
	// variable terms (PROOF's mandatory per-edge messages); the row's
	// rhs is budget - fixed.
	fixed float64
	ws    *lp.Workspace
	basis *lp.Basis
	// ids are the identities of the samples the program describes,
	// oldest first.
	ids   []uint64
	built bool
	// edited reports a model edit (a slide or a build) since the last
	// solve; a solve that follows one ranges nothing.
	edited bool
	front  frontier
	// own panics on overlapping Plan calls under the prospector_debug
	// build tag; zero-cost otherwise.
	own owner
}

// Name implements Planner.
func (c *paramLP) Name() string { return c.name }

// Plan implements Planner: follow the window (slide the live program,
// or build it afresh), find the optimum for budget on the frontier or
// re-solve for it, and round the optimum.
func (c *paramLP) Plan(budget float64) (*plan.Plan, error) {
	c.own.enter("parametric planner")
	defer c.own.leave()
	cfg := c.cfg
	d, ok := c.window()
	if ok && d.moved() {
		c.forget()
		rebuild, err := c.prog.slide(c, d)
		if err != nil {
			return nil, err
		}
		if ok = !rebuild; ok {
			c.noteWindow()
		}
	}
	if !ok {
		c.install(c.prog.build(cfg, budget))
	}
	if c.model == nil {
		return finishPlan(cfg, c.name, budget)(c.prog.round(cfg, nil, budget))
	}
	if x, hit := c.front.lookup(budget - c.fixed); hit {
		if r := cfg.Obs; r != nil {
			r.Counter("core.frontier_hits").Inc()
		}
		return finishPlan(cfg, c.name, budget, frontierHit)(c.prog.round(cfg, x, budget))
	}
	if c.ws == nil {
		// One workspace per planner: its buffers survive rebuilds and
		// re-grow at most once per shape.
		c.ws = lp.NewWorkspace()
	}
	edited := c.edited
	sol, err := c.solve(cfg, budget)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: %s solve ended %v", c.name, sol.Status)
	}
	if !edited {
		c.front.remember(c)
		if r := cfg.Obs; r != nil {
			r.Gauge("core.frontier_pieces").Set(float64(len(c.front.pieces)))
		}
	}
	return finishPlan(cfg, c.name, budget, frontierMiss)(c.prog.round(cfg, sol.X, budget))
}

// forget clears the frontier ahead of a model edit.
func (c *paramLP) forget() {
	c.front.clear()
	c.edited = true
}

// windowSlide is how cfg's sample window moved since the program was
// built: the program's samples that left (as indices into paramLP.ids)
// and the window's samples that joined (as sample indices).
type windowSlide struct {
	retired []int
	added   []int
}

// window compares the cached program's samples with the live window. ok
// is false when the program must be rebuilt: none is built, it is the
// empty program, or no sample is left in common. A window that did not
// move returns ok with an empty slide.
func (c *paramLP) window() (d windowSlide, ok bool) {
	if !c.built {
		return d, false
	}
	set := c.cfg.Samples
	i, kept := 0, 0
	for j := 0; j < set.Len(); j++ {
		id := set.ID(j)
		for ; i < len(c.ids) && c.ids[i] < id; i++ {
			d.retired = append(d.retired, i)
		}
		if i < len(c.ids) && c.ids[i] == id {
			i++
			kept++
			continue
		}
		d.added = append(d.added, j)
	}
	for ; i < len(c.ids); i++ {
		d.retired = append(d.retired, i)
	}
	return d, !d.moved() || (kept > 0 && c.model != nil)
}

// moved reports whether the slide changed anything.
func (d windowSlide) moved() bool { return len(d.retired)+len(d.added) > 0 }

// modelEdits applies a slide's edits to the live model, keeping the
// first error (only an out-of-range id, which would be a bug, makes
// one) so the edit sequence reads straight.
type modelEdits struct {
	m   *lp.Model
	err error
}

func (e *modelEdits) bound(v lp.VarID, lo, hi float64) {
	if e.err == nil {
		e.err = e.m.SetVarBound(v, lo, hi)
	}
}

func (e *modelEdits) obj(v lp.VarID, c float64) {
	if e.err == nil {
		e.err = e.m.SetObjCoef(v, c)
	}
}

func (e *modelEdits) term(row int, v lp.VarID, coef float64) {
	if e.err == nil {
		e.err = e.m.AddTerm(row, v, coef)
	}
}

// remapVars renumbers ids after lp.Model.RemoveVars; entries that
// are -1 (never created) stay -1.
func remapVars(ids []lp.VarID, varMap []lp.VarID) {
	for k, v := range ids {
		if v >= 0 {
			ids[k] = varMap[v]
		}
	}
}

// noteWindow records the live window as the one the program
// describes.
func (c *paramLP) noteWindow() {
	c.ids = c.ids[:0]
	for j := 0; j < c.cfg.Samples.Len(); j++ {
		c.ids = append(c.ids, c.cfg.Samples.ID(j))
	}
}

// install caches a freshly built model (nil for the empty program).
// Neither the basis chain nor the frontier survives a rebuild.
func (c *paramLP) install(model *lp.Model, budgetRow int, fixed float64) {
	c.forget()
	c.model = model
	c.budgetRow = budgetRow
	c.fixed = fixed
	c.basis = nil
	c.noteWindow()
	c.built = true
}

// solve points the budget row at the new budget and re-solves: warm
// from the chained basis when one exists, cold-direct otherwise. A
// warm attempt that fails (an iteration limit under cfg.LP.MaxIters,
// a numerically wedged basis) restarts cold inside lp.Solve, so
// every optimal solution carries duals and a basis that re-arms the
// chain for the next call.
//
// The steady state — an intact chain served warm, no tracing — is the
// figure sweeps' inner loop and stays off the heap; the blessed call
// edges below mark where the cold and error paths are allowed to
// allocate (TestParametricSolveAllocFree pins the runtime truth).
func (c *paramLP) solve(cfg Config, budget float64) (*lp.Solution, error) {
	if c.budgetRow >= 0 {
		// SetRHS writes one float in place; it allocates only to construct an
		// invalid-row error.
		if err := c.model.SetRHS(c.budgetRow, budget-c.fixed); err != nil {
			return nil, err
		}
	}
	opts := cfg.lpOptions()
	opts.Workspace = c.ws
	opts.KeepBasis = true
	opts.Warm = c.basis
	// The first solve and broken-chain recovery run cold; warm re-solves
	// reuse the workspace (lp's warm chain,
	// BenchmarkWarmResolveSteadyState).
	sol, err := c.model.Solve(opts)
	if err != nil {
		return nil, err
	}
	c.basis = sol.Basis
	c.edited = false
	return sol, nil
}
