// Package regress defends the paper's quantitative claims: a baseline
// is a declarative set of per-series rules over run manifests
// (internal/ledger), committed next to the figures they guard
// (results/baselines/). cmd/regress records baselines from known-good
// runs, checks fresh runs against them with a nonzero exit on any
// violation, and explains manifest pairs — giving CI the same
// mechanical gate over plan quality (energy/epoch, messages, warm-hit
// rate) that it already has over correctness.
//
// Rule kinds, evaluated against ledger.Manifest.Series values:
//
//	exact           observed == value (use only for integer-valued
//	                series: call counts, message counts)
//	abs<=           |observed - value| <= tolerance
//	rel<=           |observed - value| <= tolerance * |value|
//	quantile-band   min <= observed <= max; Record refreshes the band
//	                to observed ± tolerance (absolute half-width) —
//	                meant for derived quantile gauges whose exact value
//	                is distribution-shaped, not a point
package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Baseline is one committed rule set.
type Baseline struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Rules       []Rule `json:"rules"`
}

// Rule guards one series of a manifest.
type Rule struct {
	Series string `json:"series"`
	Kind   string `json:"kind"`
	// Value is the recorded expectation for exact / abs<= / rel<=.
	Value float64 `json:"value,omitempty"`
	// Tolerance is the allowed deviation: absolute for abs<=, a
	// fraction of |value| for rel<=, and the recording half-width for
	// quantile-band.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Min/Max bound quantile-band rules.
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
	Note string   `json:"note,omitempty"`
}

// ruleKinds enumerates the valid Kind strings.
var ruleKinds = map[string]bool{
	"exact": true, "abs<=": true, "rel<=": true, "quantile-band": true,
}

// Validate reports the first structural problem: empty or duplicate
// series, unknown kinds, negative or non-finite tolerances, bands
// without finite ordered bounds.
func (b *Baseline) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("regress: baseline has no name")
	}
	if len(b.Rules) == 0 {
		return fmt.Errorf("regress: baseline %q has no rules", b.Name)
	}
	seen := map[string]bool{}
	for i, r := range b.Rules {
		where := fmt.Sprintf("regress: baseline %q rule %d (%s)", b.Name, i, r.Series)
		if r.Series == "" {
			return fmt.Errorf("regress: baseline %q rule %d: empty series", b.Name, i)
		}
		if seen[r.Series] {
			return fmt.Errorf("%s: duplicate series", where)
		}
		seen[r.Series] = true
		if !ruleKinds[r.Kind] {
			return fmt.Errorf("%s: unknown kind %q (want exact, abs<=, rel<=, or quantile-band)", where, r.Kind)
		}
		if r.Tolerance < 0 || math.IsNaN(r.Tolerance) || math.IsInf(r.Tolerance, 0) {
			return fmt.Errorf("%s: tolerance %g must be finite and >= 0", where, r.Tolerance)
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return fmt.Errorf("%s: value %g must be finite", where, r.Value)
		}
		if r.Kind == "quantile-band" {
			if r.Min == nil || r.Max == nil {
				return fmt.Errorf("%s: quantile-band needs min and max (record the baseline to fill them)", where)
			}
			if math.IsNaN(*r.Min) || math.IsNaN(*r.Max) || math.IsInf(*r.Min, 0) || math.IsInf(*r.Max, 0) || *r.Min > *r.Max {
				return fmt.Errorf("%s: band [%g, %g] must be ordered and finite", where, *r.Min, *r.Max)
			}
		}
	}
	return nil
}

// Read parses and validates a baseline document.
func Read(r io.Reader) (*Baseline, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("regress: parse baseline: %w", err)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &base, nil
}

// ReadFile loads a baseline from path.
func ReadFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close errors carry no signal
	base, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// Write emits the baseline as indented JSON with a trailing newline.
func (b *Baseline) Write(w io.Writer) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// WriteFile writes the baseline to path.
func (b *Baseline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = b.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
