// Package energy anchors the budgetflow fixtures: budgetflow
// recognizes this Ledger, by package suffix and type name exactly as in
// the real tree, wherever it is written.
package energy

// Ledger mirrors the real accounting ledger.
type Ledger struct {
	Collection float64
	Trigger    float64
	Requests   float64
	Install    float64
	Messages   int
	Values     int
}

// Total sums the energy categories.
func (l *Ledger) Total() float64 {
	return l.Collection + l.Trigger + l.Requests + l.Install
}
