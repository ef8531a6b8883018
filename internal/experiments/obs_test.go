package experiments

import (
	"io"
	"sync"
	"testing"

	"prospector/internal/core"
	"prospector/internal/exec"
	"prospector/internal/obs"
)

// TestObsGlobalsConcurrent drives the package observability globals
// (obsReg, obsTracer, obsSpan, guarded by obsMu) from a publisher and
// from trial goroutines building scenarios at the same time, as
// cmd/experiments does between figures. Under go test -race an access
// that skips obsMu fails here.
func TestObsGlobalsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(io.Discard)
	span := tr.StartSpan(nil, "experiment", 0)
	defer SetObs(nil, nil)
	defer SetSpan(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			SetObs(reg, tr)
			SetSpan(span)
			SetSpan(nil)
		}
	}()
	if err := runTrials(4, func(int, func(func())) error {
		for i := 0; i < 200; i++ {
			newScenario(core.Config{}, exec.Env{}, nil)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	span.End(1)
}
