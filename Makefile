GO ?= go

.PHONY: all build crossbuild examples fmt vet test race alloc-pins race-stress bench bench-stack bench-json bench-json-smoke fuzz-smoke wal-verify loc ci

all: ci

build:
	$(GO) build ./...

# crossbuild compiles and vets for a non-Linux target so the build-tagged
# epoll readiness source and its pump fallback both stay compilable, and so
# do the test files built only there (vet type-checks them; build does not).
crossbuild:
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./...

# examples builds every program under examples/ into a temporary
# directory and runs it, failing (with the program's output) on a
# non-zero exit. The examples and cmd/ are the root package's callers
# (TestRootNamesHaveCallers), so this runs its surface end to end.
examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for e in examples/*/; do n="$$(basename "$$e")"; \
		$(GO) build -o "$$dir/$$n" "./$$e" || exit 1; \
		"$$dir/$$n" > "$$dir/$$n.out" 2>&1; rc=$$?; \
		if [ $$rc -ne 0 ]; then cat "$$dir/$$n.out"; echo "examples/$$n: exit $$rc"; exit 1; fi; \
		echo "ok   examples/$$n"; \
	done

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
# the suite, so this target is what enforces them: the binapi epoll and
# pipe round trips and the hopped layers at 0, the cold cycle at its
# strings, the node's bare-heartbeat ack, the status fingerprint at 0,
# the keyed status and each cold-lane step at what its shadows keep
# (TestColdLaneAllocations), a forgery the cloud refuses at 0 below the
# transport and at 0 through the attacker's agent, whose refusals are
# built once (TestRefusedForgeryAllocations), a status across the composed stack (socket,
# binapi, router, node) at 0 bare and keyed (the front end and the
# replica borrow the idempotency key, the replica the heartbeat's source
# address), each step of bind_churn's cycle across that stack with every
# held string the cloud's own or borrowed for the call
# (TestStackColdCycleAllocations), a warm delegation
# lattice's reset-grant-authorize-revoke cycle at 0
# (TestLatticeCycleAllocations), a proof at its one string and each of
# the cloud's four proof checks at none (TestProofChecksAllocateNothing), the model
# checker's part of an attack_matrix op at its results and traces (an
# exploration at none), the analyzer's part at one findings slice a design
# (TestPredictAllAllocations) and its A6 part at one, each A6 row query at
# none (TestPredictDelegationAllocations), every live Table III cell at its exact count, a
# used testbed's Reset at its two login tokens, the ten-vendor sweep on
# one worker, its rigs taken from the pool (TestEvaluateVendorsAllocations),
# at its exact count — fresh tokens, nonces, drained inboxes and its rows —
# and on two workers (TestTwoWorkerSweepAllocations) within a bound that
# follows it, since which pooled rig runs which vendor is scheduling; a
# keyed status at a full readings window at 0
# (TestFullWindowStatusMovesAndAllocatesNothing);
# and the footprint pins, which skip under -race too: the bytes a
# registered, bound and warm device costs one store (TestDeviceFootprint)
# and a primary with its replica (TestPairFootprint), each within a bound.
alloc-pins:
	$(GO) test -count=1 -run 'Alloc|Footprint' ./internal/...

# race-stress hammers the WAL group-commit queue, the sharded durable
# hot path (alone, and against cold-lane enqueues), the cluster's shipper and binapi's epoll pollers under the
# race detector, repeated so the leader/follower handoff, the
# background flusher, the truncate-vs-append windows, the
# append-observer/drain/re-seed lock order and — for a poller that
# serves its sockets in place — FIN vs epoll_wait, close vs dispatch,
# short writes vs EPOLLOUT and a locally refused over-cap request beside
# a call in flight get re-dealt across runs — and, ten times over, two
# serving goroutines (a poller and a pipe's writer) decoding cold rows
# and heartbeats for different connections, every device ID
# through the cloud's registry, and every keyed operation's key and
# address to a cloud that keeps them, directly and behind a Switchable,
# each connection's inbound buffer recycled to the next, and every
# control's command name to a cloud that keeps it, behind a service as
# the name table's string (TestServedKeysOutliveTheirFrames), and keyed
# statuses, binds and unbinds through socket, router and node
# replaying once their frames and records are overwritten
# (TestServedKeysReplay), and a replica applying binds, a refused bind,
# controls and unbinds whose borrowed keys and cold source addresses, and
# held command names, outlive their overwritten records
# (TestReplayedKeysOutliveTheirRecord), plus the pipe
# tests: many writers on one
# pipe, a pipe call parked in the cloud beside Server.Close and
# Client.Close, the server's goroutine accounting, and a window of
# callers sharing one socket client's read token, pipelined and parked
# in the read beside Client.Close; and, ten times, the canonicaliser
# reading the token issuer and the account store while other goroutines
# sign up, log in and revoke (TestCanonicalRacesLoginAndRevoke), the
# service's one name table, of reading and command names, filled by
# several goroutines at once (TestCanonicalNames), a delegated control
# racing its revocation (TestDelegationRevocationRaceOneWinner), and one
# device changing hands again and again while delegations,
# re-delegations, cascading revokes, share flips and delegated controls
# run on it, each using the lattice's severed list only under the
# shadow's lock (TestOwnershipTransferStorm);
# and, ten times, retry's Close landing in a backoff wait, real-timer and
# injected (TestRetryClose*): the wait runs inside the forwarding loop's
# End, so the call must still come back with ErrClosed and no further
# delivery; and, three times, a reused testbed against a fresh one on
# every vendor cell and a lattice sample, in orders that group each
# design's cells so most are rewound from the rig's checkpoints
# (TestResetMatchesFresh), and the parallel Table III sweep against the
# sequential one with at least four workers — the calling goroutine one
# of them — each resetting and rewinding its own testbed with
# checkpoints it shares with no other
# (TestEvaluateVendorsMatchesSequential), and sweeps back to back on the
# pooled rigs, in shuffled orders, subsets and with same-Name twins and
# lattice designs under other device IDs staged between them, against
# fresh testbeds (TestPooledSweepsMatchFresh), and the refusals a warm
# rig's agents hand out again against ones a fresh rig builds
# (TestCachedRefusalsMatchFresh); and, three times, the store's first
# inserts, every shadow made through the one get that every status
# takes (TestShardMapsAppearOnFirstInsert), and a rewind that skips the
# stores whose write count did not move against a full copy, over
# seeded operation sequences (TestGatedRewindMatchesFullCopy).
race-stress:
	$(GO) test -race -count=3 -run='TestGroupCommit|TestTruncateBeforeRacesReplayAppend' ./internal/wal/
	$(GO) test -race -count=3 -run='TestDurableConcurrentStatusRecovery|TestDurableMixedLaneRecovery' ./internal/cloud/
	$(GO) test -race -count=3 -run='TestShipper|TestNode' ./internal/cluster/
	$(GO) test -race -count=10 -run='TestServedKeysReplay' ./internal/cluster/
	$(GO) test -race -count=10 -run='TestReplayedKeysOutliveTheirRecord' ./internal/cloud/
	$(GO) test -race -count=3 -run='TestReadinessEquivalence|TestEpoll|TestShortWrite|TestIdleTimeout|TestBackpressure|TestOverCap' ./internal/binapi/
	$(GO) test -race -count=10 -run='TestServedDeviceIDsAreTheRegistrys|TestServedKeysOutliveTheirFrames|TestPipe|TestServerGoroutines|TestEpollServerGoroutines|TestReadToken' ./internal/binapi/
	$(GO) test -race -count=10 -run='TestCanonicalRacesLoginAndRevoke|TestCanonicalNames|TestDelegationRevocationRaceOneWinner|TestOwnershipTransferStorm' ./internal/cloud/
	$(GO) test -race -count=10 -run='TestRetryClose' ./internal/retry/
	$(GO) test -race -count=3 -run='TestResetMatchesFresh|TestEvaluateVendorsMatchesSequential|TestPooledSweepsMatchFresh|TestCachedRefusalsMatchFresh' ./internal/testbed/
	$(GO) test -race -count=3 -run='TestShardMapsAppearOnFirstInsert|TestGatedRewindMatchesFullCopy' ./internal/cloud/

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
# comparison; EXPERIMENTS.md quotes the front ends' numbers from it.
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
# delegation record, operation body, record-apply, proof-HMAC and
# model-checker fuzzers briefly: long enough to shake out parser and merge
# crashes on arbitrary bytes (and, for the last three, a table-driven
# record apply that disagrees with the decode-and-switch reference on any
# tag, a spelled-out HMAC that disagrees with crypto/hmac, and a packed
# state search that disagrees with the reference search on any design),
# short enough for CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=5s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzMergeShards -fuzztime=5s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzWireFrameDecode -fuzztime=5s ./internal/binapi/
	$(GO) test -run='^$$' -fuzz=FuzzDelegationRecordDecode -fuzztime=5s ./internal/wirecodec/
	$(GO) test -run='^$$' -fuzz=FuzzBodyDecode -fuzztime=5s ./internal/wirecodec/
	$(GO) test -run='^$$' -fuzz=FuzzApplyRecord -fuzztime=5s ./internal/cloud/
	$(GO) test -run='^$$' -fuzz=FuzzHmacHex -fuzztime=5s ./internal/protocol/
	$(GO) test -run='^$$' -fuzz=FuzzCheckMatchesReference -fuzztime=5s ./internal/modelcheck/

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
# and a darwin cross-compile for the non-epoll fallback), a run of every
# example program, the full suite under the race detector (the
# failover, connection-scale, share-storm and delegation tests
# included), the allocation pins that
# suite skips under -race, a benchmark smoke run,
# the bench JSON pipeline smoke, the WAL+wire fuzz smoke and the offline
# WAL integrity check. (The A6 delegation sweeps statecheck prints are
# compared with goldens by cmd/statecheck's TestGoldens.) It ends by
# printing the size figures (loc).
ci: fmt vet build crossbuild examples race alloc-pins race-stress bench bench-json-smoke fuzz-smoke wal-verify
	@$(MAKE) --no-print-directory loc
