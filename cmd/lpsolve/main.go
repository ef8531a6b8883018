// Command lpsolve solves a linear program described as JSON or MPS on
// stdin (or a file argument) using the internal revised-simplex solver,
// and prints the solution as JSON. It exists so the LP substrate can be
// exercised and debugged independently of the planners, and so models
// can be cross-checked against CPLEX-class solvers via MPS.
//
// Usage:
//
//	lpsolve [-mps] [-dump-mps out.mps] [-manifest FILE] [file]
//
// -manifest writes the run ledger (solver metrics: lp.* counters,
// pivot and timing histograms with derived quantiles) at exit.
//
// JSON input format:
//
//	{
//	  "maximize": true,
//	  "vars": [
//	    {"name": "x", "lo": 0, "hi": 4, "obj": 3},
//	    {"name": "y", "lo": 0, "obj": 5}          // hi omitted => +inf
//	  ],
//	  "constraints": [
//	    {"terms": [{"var": "y", "coef": 2}], "sense": "<=", "rhs": 12},
//	    {"terms": [{"var": "x", "coef": 3}, {"var": "y", "coef": 2}], "sense": "<=", "rhs": 18}
//	  ]
//	}
//
// Output:
//
//	{"status":"optimal","objective":36,"x":{"x":2,"y":6},"iterations":...}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"prospector/internal/lp"
	"prospector/internal/obs/telemetry"
)

type inputVar struct {
	Name string   `json:"name"`
	Lo   *float64 `json:"lo"`
	Hi   *float64 `json:"hi"`
	Obj  float64  `json:"obj"`
}

type inputTerm struct {
	Var  string  `json:"var"`
	Coef float64 `json:"coef"`
}

type inputConstr struct {
	Terms []inputTerm `json:"terms"`
	Sense string      `json:"sense"`
	RHS   float64     `json:"rhs"`
}

type input struct {
	Maximize    bool          `json:"maximize"`
	Vars        []inputVar    `json:"vars"`
	Constraints []inputConstr `json:"constraints"`
}

type output struct {
	Status     string             `json:"status"`
	Objective  float64            `json:"objective"`
	X          map[string]float64 `json:"x,omitempty"`
	Iterations int                `json:"iterations"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lpsolve:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	mps := flag.Bool("mps", false, "read MPS instead of JSON")
	dumpMPS := flag.String("dump-mps", "", "also write the model as MPS to this path")
	manifest := flag.String("manifest", "", "write the run manifest (JSON) here at exit ('-' for stdout)")
	flag.Parse()
	sess, err := telemetry.Start("lpsolve", telemetry.Flags{Manifest: *manifest})
	if err != nil {
		return err
	}
	defer func() {
		err = sess.Finish(err, map[string]string{
			"mps": fmt.Sprint(*mps), "file": flag.Arg(0),
		}, nil)
	}()
	// The solver itself never reads clocks; the CLI injects one so
	// lp.solve_seconds gets real data (the manifest quarantines it).
	opts := lp.Options{}
	if reg := sess.Registry(); reg != nil {
		opts.Obs = reg
		opts.Now = time.Now
	}
	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if *mps {
		m, err := lp.ReadMPS(r)
		if err != nil {
			return err
		}
		names := make(map[string]lp.VarID, m.NumVars())
		for j := 0; j < m.NumVars(); j++ {
			names[m.Name(lp.VarID(j))] = lp.VarID(j)
		}
		return solveAndPrint(m, names, *dumpMPS, opts)
	}
	var in input
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("parsing input: %w", err)
	}
	if len(in.Vars) == 0 {
		return fmt.Errorf("no variables")
	}

	m := lp.NewModel()
	if in.Maximize {
		m.Maximize()
	}
	ids := make(map[string]lp.VarID, len(in.Vars))
	for _, v := range in.Vars {
		if v.Name == "" {
			return fmt.Errorf("variable without a name")
		}
		if _, dup := ids[v.Name]; dup {
			return fmt.Errorf("duplicate variable %q", v.Name)
		}
		lo, hi := 0.0, lp.Inf
		if v.Lo != nil {
			lo = *v.Lo
		}
		if v.Hi != nil {
			hi = *v.Hi
		}
		id, err := m.AddVar(lo, hi, v.Obj, v.Name)
		if err != nil {
			return err
		}
		ids[v.Name] = id
	}
	for i, c := range in.Constraints {
		var sense lp.Sense
		switch c.Sense {
		case "<=", "le", "LE":
			sense = lp.LE
		case ">=", "ge", "GE":
			sense = lp.GE
		case "==", "=", "eq", "EQ":
			sense = lp.EQ
		default:
			return fmt.Errorf("constraint %d: unknown sense %q", i, c.Sense)
		}
		terms := make([]lp.Term, 0, len(c.Terms))
		for _, t := range c.Terms {
			id, ok := ids[t.Var]
			if !ok {
				return fmt.Errorf("constraint %d references unknown variable %q", i, t.Var)
			}
			terms = append(terms, lp.Term{Var: id, Coef: t.Coef})
		}
		if err := m.AddConstr(terms, sense, c.RHS); err != nil {
			return fmt.Errorf("constraint %d: %w", i, err)
		}
	}
	return solveAndPrint(m, ids, *dumpMPS, opts)
}

func solveAndPrint(m *lp.Model, ids map[string]lp.VarID, dumpMPS string, opts lp.Options) error {
	if dumpMPS != "" {
		f, err := os.Create(dumpMPS)
		if err != nil {
			return err
		}
		if err := lp.WriteMPS(f, m, "lpsolve"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	sol, err := m.Solve(opts)
	if err != nil {
		return err
	}
	out := output{Status: sol.Status.String(), Iterations: sol.Iterations}
	if sol.Status == lp.Optimal {
		out.Objective = sol.Objective
		out.X = make(map[string]float64, len(ids))
		for name, id := range ids {
			x := sol.X[id]
			if math.Abs(x) < 1e-11 {
				x = 0
			}
			out.X[name] = x
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
