package analysis

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/src mirrors the repository layout
// (fixture/internal/sim, .../obs, .../lp, .../stats, .../util) so the
// path-scoped checks fire exactly as they do over the real tree. It is
// loaded once per test binary: type-checking pulls the standard
// library through the source importer, which dominates the cost.
var (
	fixtureOnce sync.Once
	fixturePkgs []*Package
	fixtureErr  error

	fixtureProgOnce sync.Once
	fixtureProg     *Program
)

// fixtureProgram shares one Program across raw runs so the
// interprocedural checks reuse their lazily built worlds, exactly as
// Run does.
func fixtureProgram() *Program {
	fixtureProgOnce.Do(func() { fixtureProg = NewProgram(fixturePkgs) })
	return fixtureProg
}

func fixtures(t *testing.T) []*Package {
	t.Helper()
	fixtureOnce.Do(func() {
		fixturePkgs, fixtureErr = LoadDir(filepath.Join("testdata", "src"))
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	if len(fixturePkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return fixturePkgs
}

// A want comment marks the line where a check must report:
//
//	expr // want <check> "<message substring>"
var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

type wantKey struct {
	file  string
	line  int
	check string
}

func collectWants(t *testing.T) map[wantKey]string {
	t.Helper()
	wants := make(map[wantKey]string)
	root := filepath.Join("testdata", "src")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants[wantKey{file: path, line: i + 1, check: m[1]}] = m[2]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning want comments: %v", err)
	}
	return wants
}

// TestFixturesGolden runs every project check over the fixture module
// and demands an exact match against the want comments: every
// diagnostic must land on a want, and every want must fire. The
// suppress audit is exercised separately (TestSuppressAudit) because a
// want comment appended to a directive line would parse as its reason.
func TestFixturesGolden(t *testing.T) {
	pkgs := fixtures(t)
	wants := collectWants(t)
	var checks []*Check
	for _, c := range Suite() {
		if c.Name != "suppress" {
			checks = append(checks, c)
		}
	}
	for _, c := range checks {
		present := false
		for k := range wants {
			if k.check == c.Name {
				present = true
				break
			}
		}
		if !present {
			t.Errorf("fixtures demonstrate no violation for check %s", c.Name)
		}
	}

	matched := make(map[wantKey]bool)
	for _, d := range Run(pkgs, checks) {
		k := wantKey{file: d.Position.Filename, line: d.Position.Line, check: d.Check}
		substr, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, substr) {
			t.Errorf("%s: message %q does not contain %q", d.Position, d.Message, substr)
			continue
		}
		matched[k] = true
	}
	for k, substr := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: want [%s] %q never reported", k.file, k.line, k.check, substr)
		}
	}
}

// rawRun executes one check over one package with the suppression
// filter disabled.
func rawRun(pkg *Package, check *Check) []Diagnostic {
	if check.Applies != nil && !check.Applies(pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	pass := &Pass{Check: check, Pkg: pkg, Prog: fixtureProgram(), report: func(d Diagnostic) { diags = append(diags, d) }}
	check.Run(pass)
	return diags
}

// TestSuppressionsHonored proves every fixture directive does real
// work: the named check, run without the suppression filter, reports
// inside the directive's coverage window (its line or the line below),
// and the filtered Run does not.
func TestSuppressionsHonored(t *testing.T) {
	pkgs := fixtures(t)
	byName := make(map[string]*Check)
	for _, c := range Suite() {
		byName[c.Name] = c
	}
	filtered := Run(pkgs, Suite())
	covers := func(diags []Diagnostic, file string, line int, check string) bool {
		for _, d := range diags {
			if d.Position.Filename == file && d.Check == check &&
				(d.Position.Line == line || d.Position.Line == line+1) {
				return true
			}
		}
		return false
	}
	total := 0
	for _, pkg := range pkgs {
		for _, byLine := range pkg.suppressions {
			for line, sups := range byLine {
				for _, s := range sups {
					check := byName[s.check]
					if check == nil {
						continue // unknown names are the audit's business
					}
					total++
					if !covers(rawRun(pkg, check), s.file, line, s.check) {
						t.Errorf("%s:%d: suppression of %q covers no finding", s.file, line, s.check)
					}
					if covers(filtered, s.file, line, s.check) {
						t.Errorf("%s:%d: suppression of %q was not honored", s.file, line, s.check)
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("fixtures contain no suppressions")
	}
}

// TestSuppressAudit pins the suppress check's findings over the
// fixtures by message: one malformed directive (missing reason), one
// unknown check name, and the suppressed unknown name stays silent.
func TestSuppressAudit(t *testing.T) {
	pkgs := fixtures(t)
	var audit []Diagnostic
	for _, d := range Run(pkgs, Suite()) {
		if d.Check == "suppress" {
			audit = append(audit, d)
		}
	}
	if len(audit) != 2 {
		t.Fatalf("suppress audit reported %d diagnostics, want 2: %v", len(audit), audit)
	}
	if !strings.Contains(audit[0].Message, "needs a check name and a reason") {
		t.Errorf("first audit finding = %q, want the missing-reason message", audit[0].Message)
	}
	if !strings.Contains(audit[1].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("second audit finding = %q, want the unknown-check message", audit[1].Message)
	}
	for _, d := range audit {
		if strings.Contains(d.Message, "alsounknown") {
			t.Errorf("suppressed directive still audited: %s", d)
		}
	}
}

func TestSelectChecks(t *testing.T) {
	suite := Suite()
	all, err := SelectChecks(suite, nil)
	if err != nil || len(all) != len(suite) {
		t.Fatalf("empty selection = (%d checks, %v), want the full suite", len(all), err)
	}
	one, err := SelectChecks(suite, []string{"floatcmp"})
	if err != nil || len(one) != 1 || one[0].Name != "floatcmp" {
		t.Fatalf("selecting floatcmp = (%v, %v)", one, err)
	}
	if _, err := SelectChecks(suite, []string{"nosuch"}); err == nil {
		t.Fatal("selecting an unknown check did not fail")
	}
}

func TestWriters(t *testing.T) {
	diags := []Diagnostic{{
		Check:    "floatcmp",
		Position: token.Position{Filename: "x.go", Line: 3, Column: 9},
		Message:  "floating-point == comparison",
	}}
	var text bytes.Buffer
	if err := WriteText(&text, diags); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "x.go:3:9: [floatcmp] floating-point == comparison\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

func TestLoadDirRequiresModule(t *testing.T) {
	if _, err := LoadDir("testdata"); err == nil {
		t.Fatal("LoadDir on a directory without go.mod did not fail")
	}
}

// TestLoadDirNamesImportCycle pins that the depth-first loader stops at
// an import cycle and names the packages on it, instead of recursing
// forever or reporting a cycle member as missing.
func TestLoadDirNamesImportCycle(t *testing.T) {
	_, err := LoadDir(writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"scratch/b\"\n\nvar A = b.B\n",
		"b/b.go": "package b\n\nimport \"scratch/a\"\n\nvar B = a.A\n",
	}))
	if err == nil {
		t.Fatal("LoadDir on a module with an import cycle did not fail")
	}
	msg := err.Error()
	for _, want := range []string{"import cycle", "scratch/a", "scratch/b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}
}
