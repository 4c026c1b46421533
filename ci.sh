#!/usr/bin/env sh
# CI entry points for the dcsketch repo.
#
#   ./ci.sh tier1   build + unit tests (the always-green floor)
#   ./ci.sh check   tier1 plus vet (host and arm64), a gofmt check,
#                   the bench/ module's vet and smoke test, sketchlint,
#                   the perfcheck compiler contract gate (allocfree/bce/
#                   inline pins from perfpins.txt), -race tests, a
#                   forced-generic vec pass, the chaos and capture-oracle
#                   passes, the daemon's debug-surface smokes at both
#                   tiers, the daemon tests in two shuffled orders,
#                   dcsdebug assertion tests, and a concurrent fuzz
#                   smoke pass
#   ./ci.sh bench   run the Table-2 update/query benchmarks plus the
#                   tracking churn, pipeline ingest, alert-onset health,
#                   server ingest and flight-recorder Record benchmarks
#                   with -benchmem, record medians to BENCH_2.json,
#                   and fail if any ns/op or allocs/op regresses
#                   against BENCH_baseline.json
#
# `check` is the full gate documented in ROADMAP.md; run it before merging.
set -eu

cd "$(dirname "$0")"

tier1() {
	go build ./...
	go test ./...
}

check() {
	tier1
	go vet ./...
	# The !amd64 fallback (internal/vec/vec_other.go) never compiles on an
	# amd64 host. Vetting the module for arm64 type-checks it against every
	# caller, so a missing fallback function or a drifted signature fails
	# here instead of on the first non-amd64 machine that builds it.
	GOARCH=arm64 go vet ./...
	# Every tracked Go file must be gofmt-clean. Listing tracked files keeps
	# the untracked .bench_build/ module cache out; the analyzers' golden
	# testdata inputs are left as written.
	unformatted="$(gofmt -l $(git ls-files '*.go' | grep -v '/testdata/'))"
	if [ -n "$unformatted" ]; then
		echo "gofmt -l lists unformatted files:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	# The fabric benchmark is its own module (bench/go.mod), so the root
	# ./... never compiles it. Vet it and run its smoke test (all three
	# workloads at toy size, oracle included) so a change to an API it
	# imports fails here instead of at benchmark time.
	(cd bench && go vet ./... && go test -count 1 ./...)
	# sketchlint enforces the sketch invariants the type system cannot:
	# same-seed merges, '// guarded by' mutex discipline, handled wire
	# errors, the ±1 delta discipline, the hot-path contracts
	# (//lint:allocfree call graphs, //lint:scratch escape hygiene,
	# sync.Pool Get/Put balance), and the concurrency contracts
	# (lockorder acquisition cycles, goroleak goroutine joins,
	# atomicfield atomics discipline, msgexhaustive wire coverage).
	# See DESIGN.md. The run must be self-clean: zero unsuppressed
	# diagnostics over the whole module. -inventory makes the same single
	# run also print the per-analyzer finding/suppression/timing trailers,
	# so every //lint: escape hatch in the tree stays visible in the CI
	# log instead of rotting silently. The suite includes asmabi, which
	# makes the internal/vec assembly checks the toolchain does not:
	# //go:noescape and a differential test on every stub, NOSPLIT on its
	# TEXT, and DATA that fits a GLOBL. The two go vet runs above own
	# frame sizes, offsets and the fallback; the linker owns symbols.
	go run ./cmd/sketchlint -inventory ./...
	# perfcheck ground-truths the perf contracts against the compiler
	# itself: //lint:allocfree vs escape analysis, //lint:bce vs residual
	# ssa/check_bce sites, //lint:inline vs inlining decisions. The pin
	# list lives in perfpins.txt (shared with `make lint`); deleting an
	# annotation or misspelling a pinned symbol fails here instead of
	# silently shrinking the proof surface.
	go run ./cmd/perfcheck -require-file perfpins.txt
	go test -race ./...
	# Forced-generic pass: DCSKETCH_FORCE_GENERIC pins the portable vec
	# kernels even on AVX2 hardware, so the generic fallback — otherwise
	# exercised only on non-amd64 builders — gets the same differential
	# and race coverage as the SIMD path, plus the gate assertion in
	# TestForceGenericPinsFallback.
	DCSKETCH_FORCE_GENERIC=1 go test -race ./internal/vec ./internal/dcs ./internal/tdcs
	# Chaos pass: the seeded faultnet e2es. In export: connections cut
	# mid-batch while the exporter streams into a live daemon must
	# reproduce the fault-free top-k byte-for-byte with exact ledger
	# accounting, and the flight recorder alone must reconstruct a killed
	# batch's cut -> reconnect -> retransmit -> dedup story through
	# /debug/trace (TestChaosTraceReconstructsRetransmit). In relay: the
	# restart chaos — cuts plus a hard process kill and snapshot-file
	# recovery at BOTH tiers of the edge -> regional -> global fabric —
	# must keep the global top-k byte-identical to a single-box run with
	# flight-recorder proof of exactly-one apply per (session, seq).
	go test -race -run '^TestChaos' -count 1 ./internal/export ./internal/relay
	# Capture-oracle pass: crash-safe captures taken in a loop under live
	# ingest must never tear. At the server, every capture's sketch holds
	# exactly the batches its horizons promise, and LRU eviction racing the
	# captures never widens a horizon; at the relay, every capture's
	# downstream horizons sum to the upstream sequence numbers its spool
	# section has assigned. Repeated, because a tear is a timing accident.
	go test -race -count 5 \
		-run '^(TestSnapshotAtomicWithHorizons|TestSessionEvictionRacingSnapshot|TestRelaySnapshotAtomicWithSpool)$' \
		./internal/server ./internal/relay
	# Telemetry smoke: start the daemon with -debug-addr, drive real
	# traffic over a client connection, and scrape /metrics end to end
	# (decode failures, level occupancy, query-latency histogram).
	go test -run '^TestTelemetrySmoke$' -count 1 ./cmd/ddosmond
	# Trace smoke: the same daemon surface for the flight recorder — a real
	# exporter's batch traced through /debug/trace and a flood's evidence
	# served from /debug/alerts/{id}.
	go test -run '^TestDebugTraceAndAlertsSmoke$' -count 1 ./cmd/ddosmond
	# Relay-tier smoke: `ddosmond -upstream` serves the same debug surface.
	# One batch forwarded to a global tier must show the upstream
	# exporter's dcsketch_export_* series on /metrics and its enqueue,
	# send and ack in /debug/trace for the relay's own upstream session
	# (both halves of the hop write one recorder), and /debug/alerts must
	# answer.
	go test -run '^TestRelayTierDebugSmoke$' -count 1 ./cmd/ddosmond
	# Shuffled daemon tests: each test starts its own in-process daemons
	# and reads process-global state (the dcsketch_runtime_* series,
	# /debug/pprof), so no test may depend on which ran before it. Two
	# fixed seeds keep a failure reproducible.
	go test -count=1 -shuffle=1 ./cmd/ddosmond
	go test -count=1 -shuffle=2 ./cmd/ddosmond
	# Runtime invariant assertions (counter non-negativity, tracking/
	# counter consistency) compiled in via the dcsdebug build tag.
	go test -tags dcsdebug ./internal/dcs ./internal/tdcs
	# ...and the same assertions under the race detector, so a data race
	# on a counter cannot masquerade as an invariant violation.
	go test -race -tags dcsdebug ./internal/dcs ./internal/tdcs
	# Fuzz smoke: a short budget per representative target catches
	# decoder and routing regressions without holding CI hostage. The
	# sixteen targets are split into six groups; each group runs its
	# targets sequentially in one background job and the groups run
	# concurrently (-fuzztime is wall-clock, so overlapping the waits
	# keeps the whole smoke pass under ~60s instead of 16 x 10s).
	# fuzz_group's quiet logs surface only on failure.
	FUZZDIR="$(mktemp -d)"
	fuzz_group sketch \
		FuzzUnmarshalBinary ./internal/dcs \
		FuzzLocatedBatch ./internal/tdcs \
		FuzzShardRouting ./internal/pipeline \
		FuzzDecodeSnapshot ./internal/snapshot &
	fuzz_group wire-frame \
		FuzzReadFrame ./internal/wire \
		FuzzDecodeHello ./internal/wire \
		FuzzDecodeUpdates ./internal/wire &
	fuzz_group wire-into \
		FuzzDecodeUpdatesInto ./internal/wire \
		FuzzDecodeTopKReply ./internal/wire &
	fuzz_group wire-seq \
		FuzzDecodeSeqUpdates ./internal/wire \
		FuzzDecodeSeqUpdatesInto ./internal/wire &
	fuzz_group tooling \
		FuzzParseRecord ./internal/trace \
		FuzzDirectiveParse ./internal/analysis \
		FuzzDecodeTraceQuery ./internal/tracelog &
	fuzz_group diag \
		FuzzWritePrometheus ./internal/telemetry \
		FuzzParseCompilerDiag ./internal/perfdiag &
	wait
	if [ -e "$FUZZDIR/FAILED" ]; then
		echo "fuzz smoke failures:" >&2
		cat "$FUZZDIR/FAILED" >&2
		cat "$FUZZDIR"/*.log >&2
		rm -rf "$FUZZDIR"
		exit 1
	fi
	rm -rf "$FUZZDIR"
}

# fuzz_group <name> [<FuzzTarget> <package>]...: run each target for 10s,
# sequentially within the group, appending output to one per-group log that
# is printed only when a target fails. Groups are launched in the background
# from check() and joined with a single wait.
fuzz_group() {
	_fg_name="$1"
	shift
	_fg_log="$FUZZDIR/$_fg_name.log"
	while [ "$#" -gt 0 ]; do
		_fg_target="$1"
		_fg_pkg="$2"
		shift 2
		if ! go test -fuzz="^${_fg_target}\$" -fuzztime=10s "$_fg_pkg" >>"$_fg_log" 2>&1; then
			echo "  $_fg_target in $_fg_pkg (group $_fg_name)" >>"$FUZZDIR/FAILED"
		fi
	done
}

bench() {
	# The gated benchmarks: the Table-2 per-update/query costs, the tracking
	# batch path under the daemons' delete-heavy churn and the same churn
	# through the basic sketch (the tracking cost's denominator), the sharded
	# pipeline ingest layer, the sketch-health read every alert onset makes
	# under the server's ingest lock, the DCS1 encoding a state capture runs
	# under that lock (a dense sketch, and the daemon-shaped churned one a
	# capture encodes), the server's sequenced ingest over TCP
	# (ServerIngestSeq, one and two connections), and one flight-recorder
	# Record, which every ingest frame makes three of.
	# 5 repeats give benchcheck a stable median.
	out="$(mktemp)"
	trap 'rm -f "$out"' EXIT
	go test -run '^$' \
		-bench '^(BenchmarkUpdateBasic|BenchmarkUpdateTracking|BenchmarkUpdateTrackingChurn|BenchmarkUpdateBasicChurn|BenchmarkQueryBasic|BenchmarkQueryTracking|BenchmarkPipelineIngest|BenchmarkAlertOnsetHealth|BenchmarkSerializeSketch|BenchmarkSerializeSketchChurn)$' \
		-benchmem -count 5 . | tee "$out"
	go test -run '^$' \
		-bench '^BenchmarkServerIngestSeq$' \
		-benchmem -count 5 ./internal/server | tee -a "$out"
	go test -run '^$' \
		-bench '^BenchmarkRecord$/^writers=1$' \
		-benchmem -count 5 ./internal/tracelog | tee -a "$out"
	# Server throughput at a glance: per benchmark, the median of the
	# updates/s metric reported alongside the per-frame ns/op.
	awk '/^BenchmarkServerIngest/ { name = $1; sub(/-[0-9]+$/, "", name)
	       for (i = 1; i < NF; i++) if ($(i+1) == "updates/s") v[name, n[name]++] = $i }
	     END { for (name in n) { k = n[name]
	           for (i = 0; i < k; i++) for (j = i + 1; j < k; j++)
	             if (v[name, j] + 0 < v[name, i] + 0) { tmp = v[name, i]; v[name, i] = v[name, j]; v[name, j] = tmp }
	           printf "%s throughput: %.0f updates/sec (median of %d runs)\n", name, v[name, int(k/2)], k } }' "$out"
	go run ./cmd/benchcheck parse -o BENCH_2.json "$out"
	go run ./cmd/benchcheck compare \
		-baseline BENCH_baseline.json -current BENCH_2.json -max-regress 0.10
}

case "${1:-tier1}" in
tier1) tier1 ;;
check) check ;;
bench) bench ;;
*)
	echo "usage: $0 [tier1|check|bench]" >&2
	exit 2
	;;
esac
