# Developer entry points. `make check` is the full pre-commit gate.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test race bench lint alloc

check: fmt vet build race lint

# gofmt -l prints nonconforming files; any output fails the target.
fmt:
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

# The benchmark module (bench/) is a separate module that compiles
# against this one's internal API; building it here catches an API
# change that breaks it before the benchmark does. -o /dev/null keeps
# its command binary out of the tree.
build:
	go build ./...
	cd bench && go build -o /dev/null ./...

test:
	go test ./...

race:
	go test -race ./...

# Project analyzer suite (internal/analysis), in `go run ./cmd/lint
# -list` order: budgetflow, determinism, errchecklite, floatcmp,
# goleak, obsnilsafe, planfreeze, suppress. `-list` describes each;
# also enforced by lint_test.go inside `go test ./...`. The cost
# model's dimensional consistency is not here: its rates are Go types
# (internal/energy), so a misuse fails `go build`.
lint:
	go run ./cmd/lint

# The zero-allocation hot paths: every AllocsPerRun test that pins a
# steady-state path at 0 allocations per call.
alloc:
	go test -run 'AllocFree|ZeroAlloc' -count=1 -v ./internal/obs/ ./internal/obs/telemetry/ ./internal/lp/ ./internal/sim/ ./internal/exec/ ./internal/core/ ./internal/serve/

bench:
	go test -run xxx -bench 'ObsOverhead|SolveObs|ObsRegistry|SpanEmit|Manifest' -benchtime 0.3s ./internal/exec/ ./internal/lp/ ./internal/obs/ ./internal/ledger/
	go test -run xxx -bench 'TelemetryTick|FlightAppend' -benchmem -benchtime 0.3s ./internal/obs/telemetry/
