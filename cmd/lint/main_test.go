package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTinyModule lays down a one-file module with nothing to report.
func writeTinyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tiny\n\ngo 1.22\n")
	write("tiny.go", `package tiny

// Add returns a+b.
func Add(a, b int) int { return a + b }
`)
	return dir
}

// TestExitCodes pins the CLI contract run() inherited from main:
// 0 clean, 2 on usage errors — a positional argument among them, which
// would otherwise lint the -C module and exit 0 as if it had been read.
func TestExitCodes(t *testing.T) {
	dir := writeTinyModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown check: run = %d, want 2", code)
	}
	if code := run([]string{"-bogusflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: run = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-C", dir, "/no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Errorf("positional argument: run = %d, want 2", code)
	} else if !strings.Contains(stderr.String(), `unexpected argument "/no/such/dir"`) {
		t.Errorf("positional argument: stderr lacks the argument:\n%s", stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Errorf("-list: run = %d, want 0", code)
	} else if got := strings.Count(stdout.String(), "\n"); got != 8 {
		t.Errorf("-list printed %d checks, want 8:\n%s", got, stdout.String())
	}
}
