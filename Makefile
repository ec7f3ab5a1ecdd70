# Verification gate for the MikPoly reproduction. `make verify` is the
# one-command CI check: formatting, static analysis, full build, and the
# complete test suite under the race detector. `make perf` runs the planner
# benchmark suite against the committed baseline (the CI perf gate).

GO ?= go

.PHONY: verify fmtcheck fmt vet build test race fuzz bench perf baseline perfbench-check clean

verify: fmtcheck vet build race

# Formatting drift fails the build: gofmt -l must print nothing.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzzing burst against the serving layer's input handling.
fuzz:
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzPlanRequest -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzGemmShape -fuzztime 10s

bench:
	$(GO) test -bench=. -benchmem ./...

# Planner perf gate: measure the pinned shape suite and compare against the
# committed baseline. Fails on >15% latency growth, any alloc increase, or
# any change to the chosen programs / cycle-cost bits.
perf:
	$(GO) run ./cmd/mikbench -baseline BENCH_planner.json -out bench-current.json

# Refresh the committed baseline (run on a quiet machine; commit the result).
baseline:
	$(GO) run ./cmd/mikbench -out BENCH_planner.json

# The repository benchmark (perfbench/) is a Go module of its own, so the
# root ./... never vets or tests it.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
