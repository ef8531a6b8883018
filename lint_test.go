// Lint gate: running the whole analyzer suite (analysis.Suite, the
// eight checks `go run ./cmd/lint -list` describes) inside `go test
// ./...` makes tier-1 the enforcement point — a finding anywhere in the
// tree fails the build, not just `make lint`.
package prospector

import (
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

// BenchmarkLoadRepo measures the load stage: parse and type-check of
// the whole module, the standard library through the source importer.
func BenchmarkLoadRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.LoadDir("."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintRepo measures the check stage alone: the repository is
// loaded once outside the timer, then the full suite runs over it.
func BenchmarkLintRepo(b *testing.B) {
	pkgs, err := analysis.LoadDir(".")
	if err != nil {
		b.Fatalf("loading repository: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Run(pkgs, analysis.Suite())
	}
}
