GO ?= go

# Concurrency-heavy packages that must stay clean under the race detector.
RACE_PKGS = ./internal/access/... ./internal/buffer/... ./internal/core/... \
            ./internal/index/... ./internal/storage/... ./internal/txn/... \
            ./internal/wal/... ./internal/netbind/...

.PHONY: build test race bench bench-smoke sbench-smoke examples-smoke bench-regress fuzz-short crash checkpoint-crash stress isolation mvcc cluster cluster-short vet fmt-check lint counts all

# Run a race-detector test selection at a GOMAXPROCS matrix:
# single-proc forces the cooperative interleavings the scheduler
# otherwise hides, multi-proc exercises real parallelism. Usage:
# $(call gomaxprocsMatrix,$(RUN_REGEX),$(PKGS)).
define gomaxprocsMatrix
	GOMAXPROCS=1 $(GO) test -race -count=1 -run $(1) $(2)
	GOMAXPROCS=4 $(GO) test -race -count=1 -run $(1) $(2)
endef

all: vet lint build test bench-smoke sbench-smoke examples-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The storage micro-benchmarks, then the B+tree's point search and
# 50-key range (the gate of the index page format, stage 1c), then the
# SQL point UPDATE and indexed aggregate (sql_mixed's UPDATE and scan).
bench:
	$(GO) test -run xxx -bench 'BufferContention|WALCommit' -benchtime 0.5s .
	$(GO) test -run xxx -bench 'BenchmarkSearch|BenchmarkRange50' -benchtime 0.5s ./internal/index
	$(GO) test -run xxx -bench 'BenchmarkSQLUpdateByID|BenchmarkSQLIndexedAggregate' -benchtime 0.5s ./internal/sql

# bench/ is its own module (repro/bench), so the root build, vet and
# test never see it: an engine API change can break the benchmark
# silently. This is the check that it still builds and passes.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cmd/sbench has no test file: this runs every paper experiment (F1,
# F2, F5-F7, G1-G5) at toy sizes, so an Options, flag or kernel change
# cannot break the paper harness silently. Reports go to a throwaway
# directory, so a row that does not encode as JSON fails here too.
sbench-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) run ./cmd/sbench -exp all -ops 400 -keys 100 -json "$$dir"

# The examples have no test files: this runs each one. embedded and
# distributed exit non-zero when their failover scenario does not
# happen; every example exits non-zero on an engine error.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/embedded
	$(GO) run ./examples/fullfledged
	$(GO) run ./examples/distributed

# The committed benchmark trail: BENCH_BASELINE.json is the merged
# `-check 5 -json` output of the commit that last moved a number on
# purpose (host block included). This target takes a fresh five-run set
# and fails on any (workload, metric) row `-compare` calls regressed.
# The -check exit status is ignored on purpose: it judges run-to-run
# spread, which on a shared host trips timing cells by itself; those
# rows come back `unresolved` from -compare and mean "run it again".
bench-regress:
	-bash bench/run.sh -check 5 -json .bench_build/regress.json
	bash bench/run.sh -compare BENCH_BASELINE.json .bench_build/regress.json | tee .bench_build/regress.txt
	@! grep -q ' regressed$$' .bench_build/regress.txt

# Short fuzz pass over every fuzz target in the tree (go test takes one
# -fuzz target per package run). The minimiser is capped: left alone it
# spends a whole ten-second budget shrinking one 8 KiB full-page seed.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecord$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointMeta$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzNodeView$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzNodeEdits$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzValueOrder$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/access

# Crash-recovery suite: kill -9, dropped write-backs, torn page writes,
# batched transactions, and the mid-import sweeps (data-device, torn,
# and WAL crashes at every log write of a bulk load, across segment
# rollovers: recovery must land on all imported keys or none —
# TestKVCrashRecoveryMidImport* matches the pattern below), and a
# CREATE INDEX crashed at every data-device write, dropped or torn
# (TestEngineCrashRecoveryCreateIndex) — run under the race detector.
crash:
	$(GO) test -race -run 'TestKVCrashRecovery|TestAbortThenCrashRecovery|TestEngineCrashRecovery|TestCrashMidVacuum' \
		-count=1 . ./internal/txn/... ./internal/sql/...

# Checkpoint-aware crash suite: kill -9 mid-fuzzy-checkpoint, torn page
# after segment truncation (full-page-write rebuild), crash during
# segment rollover, bounded-WAL proof, free-list reclamation, and the
# windows around a checkpoint (a page evicted with no covering
# checkpoint record; a checkpoint whose snapshot flush fails).
checkpoint-crash:
	$(GO) test -race -run 'TestKVCrashRecoveryMidFuzzyCheckpoint|TestKVCrashRecoveryTornPageAfterTruncation|TestKVCrashRecoveryMidSegmentRollover|TestKVCrashRecoveryEvictedPage|TestKVCrashRecoveryCheckpointFlushFails|TestCheckpointFlushErrorReturnedToCaller|TestKVWALBoundedBySegmentTruncation|TestFreedPagesReclaimed|TestFuzzyCheckpoint' \
		-count=1 . ./internal/txn/...

# Concurrent stress suite under the race detector, at a GOMAXPROCS
# matrix: parallel KV traffic on overlapping key ranges, kill -9 under
# concurrent load (interleaved-transaction recovery), latch-crabbing
# B+tree and heap stress, and the lock-manager deadlock/upgrade audit.
STRESS_RUN = 'TestKVConcurrent|TestKVCrashRecoveryConcurrent|TestKVBatchConflicts|TestKVLockWait|TestConcurrentInsert|TestHeapConcurrent|TestConcurrentTransfers|TestDeadlock|TestLockUpgrade|TestNoPhantom|TestAcquireContext'
STRESS_PKGS = . ./internal/access/... ./internal/index/... ./internal/txn/...

stress:
	$(call gomaxprocsMatrix,$(STRESS_RUN),$(STRESS_PKGS))

# Multi-op anomaly & lock fairness suite under the race detector, at a
# GOMAXPROCS matrix: every KV op is a one-op transaction and every scan
# a consistent cut (torn batches are `make mvcc`'s), so the anomaly
# tests pin what spans two ops — a phantom between two scans, write
# skew across a scan then a put, lost updates across an unlocked get
# then a put, none when the key lock is held to commit; lock-manager
# FIFO fairness, grant-order and no-barging tests; a CREATE INDEX racing
# INSERTs on its table (the index must equal the heap).
ISOLATION_RUN = 'TestIsolation|TestLockFairness|TestLockFIFO|TestLockNoBarging|TestTryAcquire'
ISOLATION_PKGS = . ./internal/txn/... ./internal/sql/...

isolation:
	$(call gomaxprocsMatrix,$(ISOLATION_RUN),$(ISOLATION_PKGS))

# MVCC snapshot-read suite under the race detector, at a GOMAXPROCS
# matrix: consistent-cut snapshot scans against concurrent atomic
# batches, write-write conflict aborts, vacuum horizon safety, and the
# snapshot-scan vs write-storm vs continuous-vacuum stress test.
MVCC_RUN = 'TestMVCC'

mvcc:
	$(call gomaxprocsMatrix,$(MVCC_RUN),.)

# Distributed-cluster suite under the race detector, at a GOMAXPROCS
# matrix: the deterministic fault-injection harness (leader kill -9
# mid-async-commit, follower catch-up across checkpoint truncation,
# partition heal without split-brain, duplicated/dropped/delayed
# shipments), router epoch-replan property tests, WAL shipping and
# bootstrap fidelity, and the adverse-network netbind tests.
CLUSTER_RUN = 'TestCluster|TestRouter|TestShardFor|TestServer|TestFollowerWAL|TestAppendObserver|TestSnapshotSegments'
CLUSTER_PKGS = . ./internal/cluster/... ./internal/netbind/... ./internal/replicate/... ./internal/wal/...

cluster:
	$(call gomaxprocsMatrix,$(CLUSTER_RUN),$(CLUSTER_PKGS))

# Single-pass variant for quick local iteration: one race run at the
# default GOMAXPROCS, harness package only.
cluster-short:
	$(GO) test -race -count=1 -run 'TestCluster' .

vet: fmt-check
	$(GO) vet ./...

# Fails when any tracked Go file is not gofmt-clean. It lists tracked
# files rather than walking ".", which would descend into the
# benchmark's build cache.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

# Static analysis: sbdmslint machine-checks the engine's concurrency
# and durability invariants (latch ordering, WAL-before-mutate, pin
# pairing, durability error checks, context plumbing — see
# INVARIANTS.md). staticcheck and govulncheck run when installed; the
# build container has no network, so they are advisory extras rather
# than gates.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sbdmslint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed: skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed: skipping"; fi

# The sizes every subtraction PR reports, counted one way: Go lines
# outside bench/ (non-test, test), fields of sbdms.Options, and flags of
# the two commands that have any.
FLAG_DEFS = 'flag\.(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64)(Var)?\('

counts:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "bench/ Go lines:                  $$(find ./bench -name '*.go' | xargs cat | wc -l)"
	@echo "Options fields:                   $$(awk '/^type Options struct/,/^}/' sbdms.go | grep -cE '^[[:space:]]+[A-Z][A-Za-z]+[[:space:]]+[^[:space:]]')"
	@echo "cmd/sbdms flags:                  $$(grep -cE $(FLAG_DEFS) cmd/sbdms/main.go)"
	@echo "cmd/sbench flags:                 $$(grep -cE $(FLAG_DEFS) cmd/sbench/main.go)"
