GO ?= go

.PHONY: build test lint race debugtest check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) run ./cmd/sketchlint ./...
	$(GO) run ./cmd/perfcheck -require-file perfpins.txt

race:
	$(GO) test -race ./...

debugtest:
	$(GO) test -tags dcsdebug ./internal/dcs ./internal/tdcs

# Full pre-merge gate: build, tests, vet, sketchlint, -race, dcsdebug
# assertions, and a fuzz smoke pass. Mirrors ./ci.sh check.
check:
	./ci.sh check

# Perf gate: run the gated benchmarks, record medians to BENCH_2.json, and
# fail on >10% ns/op regression or any allocs/op growth against
# BENCH_baseline.json.
bench:
	./ci.sh bench
