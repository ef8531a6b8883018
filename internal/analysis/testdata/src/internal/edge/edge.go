// Package edge collects the call-graph shapes the checks lean on, all
// of them clean: method values and go on a method expression.
package edge

// Runner owns a done channel and blocks until it closes.
type Runner struct {
	done chan struct{}
	n    int
}

// NewRunner builds a runner.
func NewRunner() *Runner { return &Runner{done: make(chan struct{})} }

// Run blocks until Stop.
func (r *Runner) Run() {
	<-r.done
	r.n++
}

// Stop releases Run.
func (r *Runner) Stop() { close(r.done) }

// Launch starts Run through a method expression and hands back the
// stopper as a method value.
func Launch(r *Runner) func() {
	go (*Runner).Run(r)
	stop := r.Stop
	return stop
}
