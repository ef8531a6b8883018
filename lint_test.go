// Lint gate: running the whole analyzer suite (analysis.Suite, the
// twelve checks `go run ./cmd/lint -list` describes) inside `go test
// ./...` makes tier-1 the enforcement point — a finding anywhere in the
// tree fails the build, not just `make lint`.
package prospector

import (
	"strings"
	"testing"

	"prospector/internal/analysis"
)

func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint type-checks the whole repository; skipped with -short")
	}
	pkgs, err := analysis.LoadDir(".")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	diags := analysis.Run(pkgs, analysis.Suite())
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
	serial, err := analysis.LoadDirWorkers(".", 1)
	if err != nil {
		t.Fatalf("serial load: %v", err)
	}
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
	sd := analysis.RunWorkers(serial, analysis.Suite(), 1)
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

// benchmarkOneCheck times a single check end to end over the
// pre-loaded repository. Each iteration goes through RunWorkers with a
// fresh Program, so the cost includes rebuilding the check's
// interprocedural world (call graph included) — the price one
// incremental lint run actually pays.
func benchmarkOneCheck(b *testing.B, name string) {
	pkgs, err := analysis.LoadDir(".")
	if err != nil {
		b.Fatalf("loading repository: %v", err)
	}
	checks, err := analysis.SelectChecks(analysis.Suite(), []string{name})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.RunWorkers(pkgs, checks, 0)
	}
}

// BenchmarkConfine measures the goroutine-confinement analysis:
// directive scan, escape-site walk, and the leak-mask fixpoint.
func BenchmarkConfine(b *testing.B) { benchmarkOneCheck(b, "confine") }

// BenchmarkLockcheck measures the lock-discipline analysis: the
// per-function may/must dataflows plus the guarded-by call-site pass.
func BenchmarkLockcheck(b *testing.B) { benchmarkOneCheck(b, "lockcheck") }

// BenchmarkAlloccheck measures the allocation-discipline analysis:
// directive scan, per-function allocation-site classification with the
// escape approximation, and the BFS from every //alloc:none root.
func BenchmarkAlloccheck(b *testing.B) { benchmarkOneCheck(b, "alloccheck") }

// TestConcurrencyChecksRerunDeterministic pins byte determinism of the
// interprocedural checks specifically: independent runs (fresh
// interprocedural worlds each time) at different worker counts must
// render the identical diagnostic stream.
func TestConcurrencyChecksRerunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repository; skipped with -short")
	}
	pkgs, err := analysis.LoadDir(".")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	checks, err := analysis.SelectChecks(analysis.Suite(), []string{"confine", "lockcheck", "goleak", "alloccheck"})
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		var buf strings.Builder
		if err := analysis.WriteText(&buf, analysis.RunWorkers(pkgs, checks, workers)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render(1)
	for run, workers := range []int{8, 1, 0} {
		if got := render(workers); got != first {
			t.Errorf("re-run %d (workers=%d) diverged:\n--- first\n%s\n--- got\n%s", run, workers, first, got)
		}
	}
}
