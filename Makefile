GO ?= go

.PHONY: all build crossbuild fmt vet test race alloc-pins race-stress bench bench-stack bench-json bench-json-smoke fuzz-smoke wal-verify loc ci

all: ci

build:
	$(GO) build ./...

# crossbuild compiles for a non-Linux target so the build-tagged epoll
# readiness source and its pump fallback both stay compilable.
crossbuild:
	GOOS=darwin $(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector; the sharded cloud
# hot path and the parallel campaign sweep are exercised directly by
# internal/cloud/concurrency_test.go and the campaign worker tests.
race:
	$(GO) test -race ./...

# alloc-pins runs the allocation pins without the race detector. Every
# one of them skips itself under -race (sync.Pool drops items there and
# the counts mean nothing), and race is the only target in ci that runs
# the suite, so this target is what enforces them: the binapi epoll round
# trip and the hopped layers at 0, the cold cycle at its strings, the
# node's bare-heartbeat ack, the status fingerprint at 0, the keyed
# status and each cold-lane step at what its shadows keep, a status
# across the composed stack (socket, binapi, router, node) at 0 bare and
# at its five strings keyed, a proof at its one string, a delegation
# check at its map and traces, and every live Table III cell at its
# exact count.
alloc-pins:
	$(GO) test -count=1 -run 'Alloc' ./internal/...

# race-stress hammers the WAL group-commit queue, the sharded durable
# hot path, the cluster's shipper and binapi's epoll pollers under the
# race detector, repeated so the leader/follower handoff, the
# background flusher, the truncate-vs-append windows, the
# append-observer/drain/re-seed lock order and — for a poller that
# serves its sockets in place — FIN vs epoll_wait, close vs dispatch,
# short writes vs EPOLLOUT and a locally refused over-cap request beside
# a call in flight get re-dealt across runs — and, ten times over, two
# serving goroutines on one stripe decoding cold rows, heartbeats and
# batches for different connections, every device ID through the cloud's
# registry.
race-stress:
	$(GO) test -race -count=3 -run='TestGroupCommit|TestTruncateBeforeRacesReplayAppend' ./internal/wal/
	$(GO) test -race -count=3 -run='TestDurableConcurrentStatusRecovery' ./internal/cloud/
	$(GO) test -race -count=3 -run='TestShipper|TestNode' ./internal/cluster/
	$(GO) test -race -count=3 -run='TestReadinessEquivalence|TestEpoll|TestShortWrite|TestIdleTimeout|TestBackpressure|TestOverCap' ./internal/binapi/
	$(GO) test -race -count=10 -run='TestServedDeviceIDsAreTheRegistrys' ./internal/binapi/

# bench compiles and smoke-runs every benchmark (100 iterations, no unit
# tests) so perf regressions in the hot path are caught by CI, not just
# by hand-run comparisons.
bench:
	$(GO) test -bench=. -benchtime=100x -run='^$$' ./...

# bench-stack runs the composed-stack benchmark BENCHMARK.json declares
# (bench/README.md): a timed run of each of the four workloads through
# socket -> binapi -> router -> ack-after-replicate node -> durable
# stores, with the correctness gate. `go run ./bench -all -trace 1` is
# the per-layer run; `go run ./bench compare A.json B.json` judges two
# result files from `-all -runs 5 -out`.
bench-stack:
	$(GO) run ./bench -all

# bench-json archives a full benchmark sweep as machine-readable JSON
# (name -> ns/op, B/op, allocs/op, custom metrics) for cross-commit
# comparison; EXPERIMENTS.md quotes the batching numbers from it.
#
# The durability benchmarks land in BENCH_5.json via a second pass with
# per-group iteration counts: the µs-scale fsync/recovery benchmarks get
# few iterations, the ns-scale status hot path gets enough for the
# in-memory-vs-WAL overhead ratio (the ≤20% acceptance bar) to be
# statistically meaningful. BENCH_10.json holds the delegation numbers:
# the delegated status read must stay within 15% of the owner read (the
# lattice check must not poison the hot path), and the share-storm
# figure is a full crash-churn run per iteration.
bench-json:
	$(GO) test -bench=. -benchtime=1000x -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson -o BENCH_4.json
	{ $(GO) test -bench='^(BenchmarkWALAppend|BenchmarkRecovery)$$' -benchtime=2000x -benchmem -run='^$$' . ; \
	  $(GO) test -bench='^BenchmarkDurableStatus$$/bare' -benchtime=1000000x -benchmem -run='^$$' . ; \
	  $(GO) test -bench='^BenchmarkDurableStatus$$/keyed' -benchtime=100000x -benchmem -run='^$$' . ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_5.json
	{ $(GO) test -bench='^BenchmarkDurableStatusParallel' -benchtime=100000x -benchmem -run='^$$' . ; \
	  $(GO) test -bench='^BenchmarkGroupCommit$$' -benchtime=5000x -benchmem -run='^$$' ./internal/wal/ ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_6.json
	{ $(GO) test -bench='^BenchmarkClusterStatus$$' -benchtime=20000x -benchmem -run='^$$' ./internal/cluster/ ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_7.json
	{ $(GO) test -bench='^BenchmarkBinStatus$$' -benchtime=10000x -benchmem -run='^$$' . ; \
	  $(GO) test -bench='^BenchmarkConnLoad$$/^(pipe100k|socket2k-pump)$$' -benchtime=1x -benchmem -run='^$$' -timeout=20m . ; } \
	  | $(GO) run ./cmd/benchjson -merge -o BENCH_8.json
	{ $(GO) test -bench='^BenchmarkConnLoad$$/^socket' -benchtime=1x -benchmem -run='^$$' -timeout=30m . ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_9.json
	{ $(GO) test -bench='^BenchmarkDelegatedStatus$$' -benchtime=500000x -benchmem -run='^$$' . ; \
	  $(GO) test -bench='^BenchmarkShareStorm$$' -benchtime=20x -benchmem -run='^$$' . ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_10.json

# bench-json-smoke proves the bench->JSON pipeline still parses (one
# iteration per benchmark, output discarded) without the full sweep's
# runtime.
bench-json-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson -o /dev/null

# fuzz-smoke runs the WAL frame-decode, shard-merge, binapi wire,
# delegation record, operation body, record-apply and proof-HMAC fuzzers
# briefly: long enough to shake out parser and merge crashes on arbitrary
# bytes (and, for the last two, a table-driven record apply that
# disagrees with the decode-and-switch reference on any tag and a
# spelled-out HMAC that disagrees with crypto/hmac), short enough for CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=5s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzMergeShards -fuzztime=5s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzWireFrameDecode -fuzztime=5s ./internal/binapi/
	$(GO) test -run='^$$' -fuzz=FuzzDelegationRecordDecode -fuzztime=5s ./internal/wirecodec/
	$(GO) test -run='^$$' -fuzz=FuzzBodyDecode -fuzztime=5s ./internal/wirecodec/
	$(GO) test -run='^$$' -fuzz=FuzzApplyRecord -fuzztime=5s ./internal/cloud/
	$(GO) test -run='^$$' -fuzz=FuzzHmacHex -fuzztime=5s ./internal/protocol/

# wal-verify regenerates the crash-test corpus — clean, torn-tail and
# corrupt single-directory logs plus sharded layouts (clean merge, torn
# shard tail among healthy siblings, duplicate cross-shard LSN) — and
# runs walinspect verify against it, proving the offline integrity
# scanner classifies each correctly.
wal-verify:
	$(GO) run ./cmd/walinspect selfcheck

# loc prints the three size figures ROADMAP.md re-anchors on (and a
# simplicity PR reports its net lines in), so nobody hand-counts them:
# non-test Go outside bench/, tests outside bench/, and all of bench/.
loc:
	@printf 'non-test Go outside bench/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"
	@printf '*_test.go outside bench/:   %s\n' "$$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"
	@printf 'bench/:                     %s\n' "$$(find ./bench -name '*.go' -exec cat {} + | wc -l)"

# ci is the tier-1+ verification gate: formatting, vet, build (native
# and a darwin cross-compile for the non-epoll fallback), the full
# suite under the race detector (the failover, connection-scale,
# share-storm and delegation tests included), the allocation pins that
# suite skips under -race, a benchmark smoke run,
# the bench JSON pipeline smoke, the WAL+wire fuzz smoke, the offline
# WAL integrity check and — the one part of those
# gates no test runs — the A6 delegation sweep printed by statecheck on
# both reference postures. It ends by printing the size figures (loc).
ci: fmt vet build crossbuild race alloc-pins race-stress bench bench-json-smoke fuzz-smoke wal-verify
	$(GO) run ./cmd/statecheck -delegation worst-case
	$(GO) run ./cmd/statecheck -delegation secure
	@$(MAKE) --no-print-directory loc
