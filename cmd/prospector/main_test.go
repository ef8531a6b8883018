package main

import (
	"errors"
	"testing"
)

// TestLossFlagValidated pins -loss to probabilities: anything outside
// [0, 1], NaN included, is a usage error before any work starts (it
// would otherwise drop every message or run lossless), while the
// boundaries run.
func TestLossFlagValidated(t *testing.T) {
	for _, v := range []string{"2", "-0.1", "1.0000001", "NaN", "+Inf", "-Inf"} {
		err := run([]string{"-loss", v})
		if !errors.As(err, new(usageError)) {
			t.Errorf("-loss %s: got %v, want a usage error", v, err)
		}
	}
	for _, v := range []string{"0", "1"} {
		if err := run([]string{"-nodes", "12", "-k", "2", "-samples", "3", "-epochs", "1", "-sim", "-loss", v}); err != nil {
			t.Errorf("-loss %s: %v", v, err)
		}
	}
}

// TestPositionalArgumentRejected pins that a stray argument is a usage
// error instead of being ignored by a run that then exits 0.
func TestPositionalArgumentRejected(t *testing.T) {
	if err := run([]string{"-epochs", "1", "stray"}); !errors.As(err, new(usageError)) {
		t.Errorf("stray argument: got %v, want a usage error", err)
	}
}
