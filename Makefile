GO ?= go

.PHONY: all build vet staticcheck test test-2core race fuzz-wal fuzz-data fuzz-core smoke examples sweep chaos chaos-online chaos-standby chaos-mvcc chaos-index chaos-index-offline microbench ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Blocking static analysis. The in-repo std-lib linter always runs: gofmt
# cleanliness, a handful of AST checks, and four gates staticcheck has
# no notion of — no lock-manager call and no Commit on the snapshot read
# path (db, mvcc and core), no exclusive mutex on the log append path
# (wal.Append / reserveFill), no storage.Page mutator on a buffer
# frame's page in core, data and space (a logged page action is applied
# by its resource manager's ApplyRedo, through txn.Tx.ApplyUpdate /
# ApplyCLR), and no `stats` field compared with nil (x.stats != nil:
# constructors substitute a fresh trace.Stats, so no sink is nil).
# staticcheck runs as well where it is installed.
staticcheck:
	$(GO) run ./cmd/ariesim-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; the in-repo linter is the gate"; \
	fi

test:
	$(GO) test ./...

# Tier-1 as a loaded 2-core box runs it (ROADMAP's exit criterion): three
# passes, so a test that orders itself by sleeping or by luck shows. Then 300
# passes of the pin-bound test, whose sampler once counted a page unpinned
# early in its read beside one pinned later (about 1 run in 30 at two Ps).
test-2core:
	GOMAXPROCS=2 $(GO) test -count=3 ./...
	GOMAXPROCS=2 $(GO) test -count=300 -run 'TestTwoLatchMaximum$$' ./internal/core

# The ordinary race pass, then a 1000-iteration loop of the rollback
# torture test that used to flake with "undo chain broken: wal: no record
# at LSN" — the claim→publish race in the lock-free append path. The loop
# is the regression gate for that fix: any reintroduced window resurfaces
# as a flake well within 1000 schedules; the loop alone takes about five
# minutes, half of go test's default timeout, so that line allows 30. The
# version store's own tests (retire queue vs. concurrent committers and
# snapshot readers) repeat 20 times: its races are between StampCommit,
# End and RowsBetween, which a single pass schedules only one way. Heap
# placement likewise: the
# free-space inventory is fed by Delete and by rollbacks under page latches
# while inserts take from it under none, and compaction borrows a pooled
# scratch page (-short keeps the single-goroutine count tests at one table
# size; the concurrent ones run in full). And the update in place: it rewrites
# a cell under the page X latch while snapshot readers fetch from the same
# page under S and rollbacks shrink it back, on one page's worth of hot rows.
# The buffer pool's three stress tests repeat 20 times on pools every shard of
# which evicts all the time: a miss rebinds its victim's frame, page buffer
# and latch, so a *Frame or a slice of page bytes kept past Unfix is a data
# race with the next miss's read, which one schedule may not produce.
# The lock manager's tests repeat 20 times: an owner reads its own held-lock
# table without a mutex, which is sound only because a granter writes it
# while the owner waits and the receive from its request's channel (or the
# shard mutex the timeout and probe paths take) orders the owner's next read
# after that write — one schedule may not show a violation. The two
# savepoint tests likewise, for
# ReleaseSince popping the owner's list while contenders queue on its names.
# The log's tests repeat 20 times: an appender writes a record's bytes before
# it publishes the record's LSN in the ring, and a broken order is a data race
# the detector sees only on the schedules where a reader lands in between.
# The chain-list tests repeat 20 times: a transaction's list of the chains
# holding its versions is written by db's push and read by mvcc's commit and
# drop paths, with no mutex, while snapshot readers retire the same chains.
# The ambiguity tests repeat 20 times: locked and latch-only readers share
# one traverse, which decides under a page latch whether a set SM_Bit
# belongs to a live SMO by trying the tree latch, so a wrong answer shows only
# on the schedules where an SMO holds or releases it in between.
# The replication tests repeat 10 times: the shipper's retransmit ticker is
# the one loss repair, and when the stream heals depends on the ticker's
# schedule against the channel's faults, which one pass samples only once.
# The drain-order test repeats 20 times: N redo workers must each replay
# their partition of the plan one page at a time in first-redo order, and a
# second fan-out inside a worker shows only as an order its schedule breaks.
# The paper tables repeat 5 times: -table smo parks reader goroutines behind
# an uncommitted split, so a race or a schedule-dependent count shows up as a
# golden diff.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -timeout 30m -run 'TestRollbackNeverDeadlocks$$' -count=1000 ./internal/core
	$(GO) test -race -count=20 ./internal/mvcc
	$(GO) test -race -short -count=10 ./internal/data ./internal/storage
	$(GO) test -race -run 'TestUpdateInPlaceUnderSnapshotReaders$$' -count=20 ./internal/db
	$(GO) test -race -count=20 -run 'TestShardStress$$|TestConcurrentSameShardMix$$|TestCleanerConcurrentWithTraffic$$' ./internal/buffer
	$(GO) test -race -count=20 ./internal/lock
	$(GO) test -race -count=20 -run 'TestPartialRollbackToSavepoint$$|TestSavepointReleaseUnblocksContender$$' ./internal/txn
	$(GO) test -race -count=20 -run 'TestStaleSMBitIsSteppedOver$$|TestTraversalAmbiguityWaits$$' ./internal/core
	$(GO) test -race -count=20 -run 'TestSnapshotReadPastStaleSMBit$$' ./internal/db
	$(GO) test -race -count=20 -run 'TestVersionStoreFootprintBounded$$|TestChainListSurvivesSavepointRollback$$' ./internal/db
	$(GO) test -race -count=20 -run 'TestDrainReplaysItsPartitionInOrder$$' ./internal/recovery
	$(GO) test -race -count=5 ./cmd/ariesim-bench
	$(GO) test -race -count=20 ./internal/wal
	$(GO) test -race -count=10 ./internal/repl

# Ten seconds of fuzzing the log record decoder: no input panics it, and
# whatever decodes re-encodes to the same bytes (the header is canonical).
# Minimizing a new input derived from the 64 KiB seed can outlast the whole
# budget, so minimization is capped at a second. Then ten seconds of random
# appends (records crossing index blocks, spanning one or three chunks, ending
# on a chunk boundary), forces, truncations, torn-tail crashes, clones, reads
# and scans, the log checked after every step against a slice of its records.
# Then ten seconds of segment frames, raw and resealed: whatever decodes
# re-encodes to its body, and an archive read never panics.
fuzz-wal:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzLogBoundaries -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 10s -fuzzminimizetime 1s ./internal/wal

# Ten seconds of fuzzing the data page redo: any op and payload, forward or as
# a CLR, applied to a data page holding a live record, two ghosts and an
# emptied slot returns an error or leaves a well-formed page, and never panics.
fuzz-data:
	$(GO) test -run '^$$' -fuzz FuzzDataApplyRedo -fuzztime 10s -fuzzminimizetime 1s ./internal/data

# Ten seconds of fuzzing the index page redo: any index op and payload,
# forward or as a CLR, applied to a formatted leaf, a nonleaf and a
# pushed-down root never panics.
fuzz-core:
	$(GO) test -run '^$$' -fuzz FuzzIndexApplyRedo -fuzztime 10s -fuzzminimizetime 1s ./internal/core

# A short chaos sweep under injected disk faults, planted silent corruption,
# voluntary rollbacks and a torn log tail: the sweep fails unless each of the
# last three happened and every fault class was absorbed.
smoke:
	$(GO) run ./cmd/ariesim-crash -workers 4 -crashes 3 -seed 1 -faults

# Build and run each program under examples/: they drive the public facade
# (package ariesim) and log.Fatal on any invariant they check, so the target
# fails on the first non-zero exit.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d; \
	done

# Exhaustive crash-point sweep: every log record boundary, double recovery.
# This and the chaos targets below run internal/harness through
# cmd/ariesim-crash.
sweep:
	$(GO) run ./cmd/ariesim-crash -sweep

# Crash-under-load chaos sweep: concurrent workers through RunTxn, injected
# faults, crashes at random points under live traffic, exact verification
# after every restart. Deterministic seed so CI failures reproduce.
chaos:
	$(GO) run ./cmd/ariesim-crash -workers 8 -crashes 20 -seed 1 -faults

# The same sweep with online restarts: the engine reopens the moment
# analysis finishes, workers race the background drain and loser undo,
# and a rotating subset of points re-crashes mid-recovery.
chaos-online:
	$(GO) run ./cmd/ariesim-crash -online -workers 8 -crashes 20 -seed 1 -faults -redo 8

# Hot-standby failover sweep under the race detector: live replicated
# traffic over a seeded lossy channel through the semi-sync gate, primary
# crashed mid-traffic, standby promoted, zombie segments fenced, and the
# promoted node verified byte-exactly — plus a promotion fork per record
# boundary of the standby's received window. Five seeds, because the
# retransmit ticker is the one loss repair and each seed's fault sequence
# meets it on a different schedule.
chaos-standby:
	for seed in 1 2 3 4 5; do \
		$(GO) run -race ./cmd/ariesim-crash -standby -faults -workers 3 -commits 60 -seed $$seed || exit 1; \
	done

# Chaos sweep with lock-free snapshot readers racing the writers and the
# crash schedule: every reader observation must be exactly the committed
# state at some commit boundary (zero torn reads), verified against the
# LSN-keyed commit ledger, with zero lock-manager calls by readers.
chaos-mvcc:
	$(GO) run ./cmd/ariesim-crash -online -workers 8 -crashes 20 -seed 1 -faults -redo 8 -mvcc 4

# Chaos sweep with a secondary index maintained through the whole run:
# every transaction updates both trees, snapshot readers alternate between
# primary-order and index-order scans, and after every crash+restart the
# secondary index is cross-verified entry-by-entry against the base table
# (no orphan entries, no missing entries, keys match the extractor).
chaos-index:
	$(GO) run ./cmd/ariesim-crash -online -workers 8 -crashes 20 -seed 1 -faults -redo 8 -mvcc 4 -index

# The same secondary-index sweep with offline restarts: every restart
# finishes redo and undo before the workers come back.
chaos-index-offline:
	$(GO) run ./cmd/ariesim-crash -workers 8 -crashes 20 -seed 1 -faults -mvcc 4 -index

microbench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Everything a change may claim about speed comes from the repository's
# benchmark (BENCHMARK.json, benchmark/README.md): bash benchmark/run.sh.

ci: build vet staticcheck test-2core race fuzz-wal fuzz-data fuzz-core smoke examples sweep chaos chaos-online chaos-standby chaos-mvcc chaos-index chaos-index-offline
