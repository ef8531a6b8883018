// Package plan defines the fixture twin of the frozen plan type.
// Inside this package plans may be built and mutated freely;
// planfreeze locks them everywhere else.
package plan

// Plan is immutable once a constructor returns it.
type Plan struct {
	Bandwidth []int
}

// New is the sanctioned constructor.
func New(n int) *Plan { return &Plan{Bandwidth: make([]int, n)} }

// Grow raises the bandwidth of the edge above v. Legal here; calling
// it with a frozen plan from another package is a planfreeze finding.
func (p *Plan) Grow(v, n int) { p.Bandwidth[v] += n }
