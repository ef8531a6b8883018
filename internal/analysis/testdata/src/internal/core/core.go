// Package core misuses plans the way a hurried planner would: it
// patches them after construction (planfreeze).
package core

import "fixture/internal/plan"

// Widen writes through a frozen plan outside its defining package.
func Widen(p *plan.Plan, v int) {
	p.Bandwidth[v]++ // want planfreeze "write to frozen plan.Plan"
}

// Fake builds a plan around the constructor's validation.
func Fake(n int) *plan.Plan {
	return &plan.Plan{Bandwidth: make([]int, n)} // want planfreeze "composite literal constructs frozen plan.Plan"
}

// Reroute hands a frozen plan to a helper that mutates it; the
// interprocedural mutator masks catch the call site.
func Reroute(p *plan.Plan) {
	p.Grow(0, 1) // want planfreeze "mutates its frozen plan.Plan argument"
}

// Rebind swaps which plan a variable names; rebinding is not mutation.
func Rebind(p, q *plan.Plan) *plan.Plan {
	p = q
	return p
}

// Scratch repairs a search-internal working copy in place.
func Scratch(p *plan.Plan, v int) {
	//lint:ignore planfreeze fixture demonstrating an honored suppression
	p.Bandwidth[v] = 0
}
