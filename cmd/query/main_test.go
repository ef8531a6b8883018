package main

import (
	"errors"
	"testing"
)

// TestExitCodes pins the one-shot contract: a -q query that fails to
// parse or to run is an error (main exits 1, and the session records
// it), a good one is not, and a positional argument is a usage error
// (main exits 2).
func TestExitCodes(t *testing.T) {
	for _, q := range []string{
		"SELECT DOWN 5 FROM sensors",        // no such target
		"SELECT MEDIAN(value) FROM sensors", // aggregates are not queries
		"SELECT TOP 50 FROM sensors",        // k above the 12-node network
	} {
		err := run([]string{"-nodes", "12", "-warmup", "3", "-q", q})
		if err == nil {
			t.Errorf("-q %q: run succeeded, want an error", q)
		} else if errors.As(err, new(usageError)) {
			t.Errorf("-q %q: got usage error %v, want a plain error", q, err)
		}
	}
	if err := run([]string{"-nodes", "12", "-warmup", "3", "-q", "SELECT TOP 3 FROM sensors"}); err != nil {
		t.Errorf("good query: %v", err)
	}
	if err := run([]string{"-nodes", "12", "stray"}); !errors.As(err, new(usageError)) {
		t.Errorf("stray argument: got %v, want a usage error", err)
	}
}
