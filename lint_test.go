// Lint gate: running the whole analyzer suite (analysis.Suite, the
// eight checks `go run ./cmd/lint -list` describes) inside `go test
// ./...` makes tier-1 the enforcement point — a finding anywhere in the
// tree fails the build, not just `make lint`.
package prospector

import (
	"sync"
	"testing"

	"prospector/internal/analysis"
)

// serialLint is one serial load of the repository and the suite's
// diagnostics over it, shared by the tests below: the load (parse and
// type-check, the standard library from source) is nearly all of
// their cost.
var serialLint struct {
	once  sync.Once
	pkgs  []*analysis.Package
	diags []analysis.Diagnostic
	err   error
}

func loadSerialLint(t *testing.T) ([]*analysis.Package, []analysis.Diagnostic) {
	t.Helper()
	serialLint.once.Do(func() {
		serialLint.pkgs, serialLint.err = analysis.LoadDirWorkers(".", 1)
		if serialLint.err == nil {
			serialLint.diags = analysis.RunWorkers(serialLint.pkgs, analysis.Suite(), 1)
		}
	})
	if serialLint.err != nil {
		t.Fatalf("loading repository: %v", serialLint.err)
	}
	return serialLint.pkgs, serialLint.diags
}

func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint type-checks the whole repository; skipped with -short")
	}
	_, diags := loadSerialLint(t)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("reproduce with `go run ./cmd/lint`; silence a finding with `//lint:ignore <check> <reason>` plus justification")
	}
}

// TestLoadDirWorkersDeterministic pins the contract that worker count
// only changes wall-clock, never output: package order, check output,
// and positions are identical for serial and parallel loads.
func TestLoadDirWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repository twice; skipped with -short")
	}
	serial, sd := loadSerialLint(t)
	parallel, err := analysis.LoadDirWorkers(".", 8)
	if err != nil {
		t.Fatalf("parallel load: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial load found %d packages, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Path != parallel[i].Path {
			t.Errorf("package %d: serial %s, parallel %s", i, serial[i].Path, parallel[i].Path)
		}
	}
	pd := analysis.RunWorkers(parallel, analysis.Suite(), 8)
	if len(sd) != len(pd) {
		t.Fatalf("serial run produced %d diagnostics, parallel %d", len(sd), len(pd))
	}
	for i := range sd {
		if sd[i] != pd[i] {
			t.Errorf("diagnostic %d differs: serial %s, parallel %s", i, sd[i], pd[i])
		}
	}
}

// BenchmarkLoadRepo measures the load stage (parse + type-check of the
// whole module, stdlib through the source importer) serial vs parallel.
func BenchmarkLoadRepo(b *testing.B) {
	for _, bm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.LoadDirWorkers(".", bm.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLintRepo measures the check stage alone: the repository is
// loaded once outside the timer, then the full suite runs over it with
// one worker vs the machine's worth.
func BenchmarkLintRepo(b *testing.B) {
	pkgs, err := analysis.LoadDir(".")
	if err != nil {
		b.Fatalf("loading repository: %v", err)
	}
	for _, bm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.RunWorkers(pkgs, analysis.Suite(), bm.workers)
			}
		})
	}
}
