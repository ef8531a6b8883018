//go:build prospector_debug

package core

import (
	"fmt"
	"runtime"
)

// owner enforces the planners' single-goroutine contract: under the
// prospector_debug build tag a planner records the goroutine that
// first touches its LP cache and panics on any call from another one.
// Release builds compile this to nothing (owner_release.go).
type owner struct {
	gid int64
	// buf receives the stack header. A field rather than a local: a
	// local array escapes through runtime.Stack, and the planners' warm
	// paths are pinned allocation-free under this tag too.
	buf [64]byte
}

// goroutineID parses the current goroutine's id out of the stack
// header ("goroutine 17 [running]:") without allocating. Slow, which
// is fine: it only exists under the debug tag.
func (o *owner) goroutineID() int64 {
	const prefix = "goroutine "
	b := o.buf[:runtime.Stack(o.buf[:], false)]
	if len(b) <= len(prefix) || string(b[:len(prefix)]) != prefix {
		return -1
	}
	id, digits := int64(0), 0
	for _, c := range b[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return id
}

// assert claims ownership on first use and panics on a cross-goroutine
// call.
func (o *owner) assert(what string) {
	g := o.goroutineID()
	if o.gid == 0 {
		o.gid = g
		return
	}
	if o.gid != g {
		panic(fmt.Sprintf(
			"core: %s used from goroutine %d but owned by goroutine %d; planners are single-goroutine — build one per goroutine or hand it off explicitly",
			what, g, o.gid))
	}
}
