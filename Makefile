GO ?= go

.PHONY: all build vet staticcheck test race smoke sweep chaos chaos-online chaos-standby chaos-mvcc chaos-index microbench bench bench-smoke ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Blocking static analysis: staticcheck when installed, otherwise the
# in-repo std-lib linter (gofmt cleanliness + a handful of AST checks)
# stands in, so the gate runs — and fails on findings — everywhere.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; running in-repo fallback linter"; \
		$(GO) run ./cmd/ariesim-lint ./...; \
	fi

test:
	$(GO) test ./...

# The ordinary race pass, then a 1000-iteration loop of the rollback
# torture test that used to flake with "undo chain broken: wal: no record
# at LSN" — the claim→publish race in the lock-free append path. The loop
# is the regression gate for that fix: any reintroduced window resurfaces
# as a flake well within 1000 schedules. The version store's own tests
# (retire queue vs. concurrent committers and snapshot readers) repeat 20
# times: its races are between FinishCommit, End and RowsBetween, which a
# single pass schedules only one way. Heap placement likewise: the
# free-space inventory is fed by Delete and by rollbacks under page latches
# while inserts take from it under none, and compaction borrows a pooled
# scratch page (-short keeps the single-goroutine count tests at one table
# size; the concurrent ones run in full).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'TestRollbackNeverDeadlocks$$' -count=1000 ./internal/core
	$(GO) test -race -count=20 ./internal/mvcc
	$(GO) test -race -short -count=10 ./internal/data ./internal/storage

# Crash-torture smoke under injected disk faults, torn log tails, and
# planted silent corruption: every fault class must be absorbed.
smoke:
	$(GO) run ./cmd/ariesim-crash -rounds 3 -workers 2 -ops 120 -faults -torn -bitflip

# Exhaustive crash-point sweep: every log record boundary, double recovery.
sweep:
	$(GO) run ./cmd/ariesim-crash -sweep

# Crash-under-load chaos sweep: concurrent workers through RunTxn, injected
# faults, crashes at random points under live traffic, exact verification
# after every restart. Deterministic seed so CI failures reproduce.
chaos:
	$(GO) run ./cmd/ariesim-crash -chaos -workers 8 -crashes 20 -seed 1 -faults

# The same sweep with online restarts: the engine reopens the moment
# analysis finishes, workers race the background drain and loser undo,
# and a rotating subset of points re-crashes mid-recovery.
chaos-online:
	$(GO) run ./cmd/ariesim-crash -chaos -online -workers 8 -crashes 20 -seed 1 -faults -redo 8

# Hot-standby failover sweep under the race detector: live replicated
# traffic over a seeded lossy channel through the semi-sync gate, primary
# crashed mid-traffic, standby promoted, zombie segments fenced, and the
# promoted node verified byte-exactly — plus a promotion fork per record
# boundary of the standby's received window.
chaos-standby:
	$(GO) run -race ./cmd/ariesim-crash -standby -faults -workers 3 -commits 60 -seed 1

# Chaos sweep with lock-free snapshot readers racing the writers and the
# crash schedule: every reader observation must be exactly the committed
# state at some commit boundary (zero torn reads), verified against the
# LSN-keyed acked-commit ledger, with zero lock-manager calls by readers.
chaos-mvcc:
	$(GO) run ./cmd/ariesim-crash -chaos -online -workers 8 -crashes 20 -seed 1 -faults -redo 8 -mvcc 4

# Chaos sweep with a secondary index maintained through the whole run:
# every transaction updates both trees, snapshot readers alternate between
# primary-order and index-order scans, and after every crash+restart the
# secondary index is cross-verified entry-by-entry against the base table
# (no orphan entries, no missing entries, keys match the extractor).
chaos-index:
	$(GO) run ./cmd/ariesim-crash -chaos -online -workers 8 -crashes 20 -seed 1 -faults -redo 8 -mvcc 4 -index

microbench:
	$(GO) test -bench=. -benchmem ./...

# Concurrency benchmark: old (serial commit, single lock shard) vs new
# (group commit + early lock release, sharded locks) across workloads and
# worker counts. Writes BENCH_concurrency.json and fails if the hot-key
# write speedup at 16 workers is below 2x or the JSON is malformed.
# The -profile mutex pass then drives the append-burst workload with mutex
# profiling at full fraction and fails if the log append path (lock-free
# LSN reservation) shows up among the contended cycles; the pre-PR serial
# latch runs as a control the profiler must be able to see.
# The buffer benchmark does the same for the pool: old (single-mutex,
# serial I/O) vs new (sharded, clock sweep, I/O outside the lock) vs
# new-cleaner, gated on the 16-worker read speedup and the cleaner's
# dirty-eviction drop, with counter-consistency self-verification.
# The recovery benchmark crashes populated engines and measures restart
# time and redo throughput, serial vs page-partitioned parallel redo
# across 1-16 workers, gated on the 8-worker redo speedup and on
# byte-exact row verification after every restart.
bench:
	$(GO) run ./cmd/ariesim-perf -out BENCH_concurrency.json -minspeedup 2
	$(GO) run ./cmd/ariesim-perf -verify BENCH_concurrency.json
	$(GO) run ./cmd/ariesim-perf -profile mutex
	$(GO) run ./cmd/ariesim-perf -workload buffer -out BENCH_buffer.json -minspeedup 3 -mincleanerdrop 5
	$(GO) run ./cmd/ariesim-perf -verify BENCH_buffer.json
	$(GO) run ./cmd/ariesim-perf -workload recovery -out BENCH_recovery.json -minspeedup 2
	$(GO) run ./cmd/ariesim-perf -verify BENCH_recovery.json
	$(GO) run ./cmd/ariesim-perf -workload standby -out BENCH_standby.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_standby.json
	$(GO) run ./cmd/ariesim-perf -workload mvcc -out BENCH_mvcc.json -minspeedup 5
	$(GO) run ./cmd/ariesim-perf -verify BENCH_mvcc.json
	$(GO) run ./cmd/ariesim-perf -workload index -out BENCH_index.json -minspeedup 5
	$(GO) run ./cmd/ariesim-perf -verify BENCH_index.json

# Reduced run for CI: fewer transactions, same shape checks, and the
# committed BENCH_*.json files must exist and parse.
bench-smoke:
	$(GO) run ./cmd/ariesim-perf -smoke -out /tmp/ariesim_bench_smoke.json -minspeedup 2
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_concurrency.json
	$(GO) run ./cmd/ariesim-perf -profile mutex -smoke
	$(GO) run ./cmd/ariesim-perf -workload buffer -smoke -out /tmp/ariesim_bench_buffer_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_buffer_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_buffer.json
	$(GO) run ./cmd/ariesim-perf -workload recovery -smoke -out /tmp/ariesim_bench_recovery_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_recovery_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_recovery.json
	$(GO) run ./cmd/ariesim-perf -workload standby -smoke -out /tmp/ariesim_bench_standby_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_standby_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_standby.json
	$(GO) run ./cmd/ariesim-perf -workload mvcc -smoke -out /tmp/ariesim_bench_mvcc_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_mvcc_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_mvcc.json
	$(GO) run ./cmd/ariesim-perf -workload index -smoke -out /tmp/ariesim_bench_index_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify /tmp/ariesim_bench_index_smoke.json
	$(GO) run ./cmd/ariesim-perf -verify BENCH_index.json

ci: build vet staticcheck race smoke chaos chaos-online chaos-standby chaos-mvcc chaos-index bench-smoke
