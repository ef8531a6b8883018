//go:build prospector_debug

package core

import (
	"fmt"
	"sync/atomic"
)

// owner enforces that a planner is not used concurrently: under the
// prospector_debug build tag a planner marks itself busy for the
// length of each Plan call and panics when a call starts while another
// is still running. Calls from several goroutines are fine as long as
// they do not overlap (a mutex around the planner, as the serve tier
// keeps). Release builds compile this to nothing (owner_release.go).
type owner struct {
	busy atomic.Bool
}

// enter marks the planner busy, panicking if a call is already in it.
func (o *owner) enter(what string) {
	if !o.busy.CompareAndSwap(false, true) {
		panic(fmt.Sprintf(
			"core: %s called while another call is running on it; planners are not safe for concurrent use — serialize the calls or build one planner per goroutine",
			what))
	}
}

// leave ends the call enter began.
func (o *owner) leave() { o.busy.Store(false) }
