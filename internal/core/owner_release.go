//go:build !prospector_debug

package core

// owner is a no-op in release builds; the prospector_debug tag swaps
// in the asserting version (owner_debug.go) that panics when two
// calls on one planner overlap.
type owner struct{}

// enter and leave are free in release builds: no flag, no branch.
func (o *owner) enter(string) {}
func (o *owner) leave()       {}
