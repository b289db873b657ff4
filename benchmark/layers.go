package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"time"

	"ariesim/internal/recovery"
	"ariesim/internal/trace"
)

// perLayer are the ungated metrics of single layers, named <layer>.<metric>
// after this repository's packages. Counts (`_per_txn`, `_per_ktxn`) come from
// DB.Stats() diffed around a run; times (`_ns`) from probes that call the
// layer's public functions directly; `db.*_ns` from the benchmark's own spans.
var perLayer = append([]metricDef{
	{"lock.calls_per_txn", "count", "lower", 0},
	{"lock.waits_per_ktxn", "count", "lower", 0},
	{"lock.deadlocks_per_ktxn", "count", "lower", 0},
	{"lock.timeouts_per_ktxn", "count", "lower", 0},
	{"lock.request_ns", "ns", "lower", 0},
	{"lock.release_all_ns", "ns", "lower", 0},

	{"latch.acquires_per_txn", "count", "lower", 0},
	{"latch.waits_per_ktxn", "count", "lower", 0},
	{"latch.tree_acquires_per_ktxn", "count", "lower", 0},
	{"latch.tree_waits_per_ktxn", "count", "lower", 0},
	{"latch.acquire_release_ns", "ns", "lower", 0},

	{"buffer.fixes_per_txn", "count", "lower", 0},
	{"buffer.misses_per_txn", "count", "lower", 0},
	{"buffer.hit_rate", "ratio", "higher", 0},
	{"buffer.evictions_per_txn", "count", "lower", 0},
	{"buffer.dirty_evictions_per_txn", "count", "lower", 0},
	{"buffer.eviction_stalls_per_ktxn", "count", "lower", 0},
	{"buffer.page_writes_per_txn", "count", "lower", 0},
	{"buffer.fix_hit_ns", "ns", "lower", 0},
	{"buffer.fix_miss_ns", "ns", "lower", 0},

	{"storage.page_read_ns", "ns", "lower", 0},
	{"storage.page_write_ns", "ns", "lower", 0},

	{"wal.records_per_txn", "count", "lower", 0},
	{"wal.bytes_per_txn", "bytes", "lower", 0},
	{"wal.forces_per_txn", "count", "lower", 0},
	{"wal.group_commit_ratio", "ratio", "higher", 0},
	{"wal.watermark_stalls_per_ktxn", "count", "lower", 0},
	{"wal.records_total", "count", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.force_ns", "ns", "lower", 0},
	{"wal.read_ns", "ns", "lower", 0},

	{"db.retries_per_ktxn", "count", "lower", 0},
	{"txn.begin_commit_ns", "ns", "lower", 0},
	{"txn.rollback_ns", "ns", "lower", 0},

	{"data.insert_fixes", "count", "lower", 0},
	{"data.fetch_ns", "ns", "lower", 0},
	{"data.fetch_nolock_ns", "ns", "lower", 0},
	{"data.insert_ns", "ns", "lower", 0},
	{"data.delete_ns", "ns", "lower", 0},

	{"core.traversals_per_txn", "count", "lower", 0},
	{"core.repositions_per_ktxn", "count", "lower", 0},
	{"core.splits_per_ktxn", "count", "lower", 0},
	{"core.page_deletes_per_ktxn", "count", "lower", 0},
	{"core.smbit_waits_per_ktxn", "count", "lower", 0},
	{"core.ambiguity_restarts_per_ktxn", "count", "lower", 0},
	{"core.undo_logical_per_ktxn", "count", "lower", 0},
	{"core.fetch_ns", "ns", "lower", 0},
	{"core.fetch_nolock_ns", "ns", "lower", 0},
	{"core.fetch_next_ns", "ns", "lower", 0},
	{"core.insert_ns", "ns", "lower", 0},
	{"core.delete_ns", "ns", "lower", 0},

	{"mvcc.versions_pushed_per_txn", "count", "lower", 0},
	{"mvcc.chain_hit_rate", "ratio", "higher", 0},
	{"mvcc.chains_live", "count", "lower", 0},
	{"mvcc.too_old_per_ktxn", "count", "lower", 0},
	{"mvcc.reader_lock_calls", "count", "lower", 0},
	{"mvcc.push_commit_ns", "ns", "lower", 0},
	{"mvcc.read_ns", "ns", "lower", 0},
	{"mvcc.rows_between_ns", "ns", "lower", 0},

	{"db.get_ns", "ns", "lower", 0},
	{"db.update_ns", "ns", "lower", 0},
	{"db.insert_ns", "ns", "lower", 0},
	{"db.delete_ns", "ns", "lower", 0},
	{"db.scan16_ns", "ns", "lower", 0},
	{"db.ro_get_ns", "ns", "lower", 0},
	{"db.ro_scan16_ns", "ns", "lower", 0},
	{"db.commit_force_ns", "ns", "lower", 0},
	{"db.commit_ack_ns", "ns", "lower", 0},
	{"db.runtxn_self_ns", "ns", "lower", 0},

	{"recovery.records_seen", "count", "lower", 0},
	{"recovery.redo_applied", "count", "lower", 0},
	{"recovery.redo_skipped", "count", "lower", 0},
	{"recovery.pages_on_demand", "count", "lower", 0},
	{"recovery.pages_drained", "count", "lower", 0},
	{"recovery.locks_reinstated", "count", "lower", 0},
	{"recovery.analysis_ms", "ms", "lower", 0},
	{"recovery.redo_ms", "ms", "lower", 0},
	{"recovery.undo_ms", "ms", "lower", 0},
	{"recovery.redo_records_per_s", "1/s", "higher", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"budget.lock_share", "ratio", "lower", 0},
	{"budget.latch_share", "ratio", "lower", 0},
	{"budget.buffer_share", "ratio", "lower", 0},
	{"budget.storage_share", "ratio", "lower", 0},
	{"budget.wal_share", "ratio", "lower", 0},
	{"budget.txn_share", "ratio", "lower", 0},
	{"budget.mvcc_share", "ratio", "lower", 0},
	{"budget.unattributed_share", "ratio", "lower", 0},
	{"env.calibration_spread", "ratio", "lower", 0},
}, ungatedEndToEnd...)

// soloResult is a one-client run of a fixed number of transactions: one
// goroutine, one role after the other, so its counts repeat exactly.
type soloResult struct {
	txns     int
	rwTxns   int
	elapsedS float64
	diff     trace.Snapshot          // engine counters over the whole run
	byRole   [clients]trace.Snapshot // the same, per client role
	records  int
	failed   int
	failures []string
}

// soloRun restarts a fork of the image into a cold, deterministic state
// (restart, flush, checkpoint, crash, restart: the second restart has nothing
// to redo), reads the whole table once so resident pools are warm, and runs
// cfg.tracedTxns transactions of each role.
func (img *image) soloRun(seed int64, tr *tracer) (*soloResult, error) {
	cfg, w := img.cfg, img.w
	e := img.fork()
	if _, err := e.d.Restart(); err != nil {
		return nil, err
	}
	if err := e.d.Pool().FlushAll(); err != nil {
		return nil, err
	}
	e.d.Checkpoint()
	e.d.Crash()
	if _, err := e.d.Restart(); err != nil {
		return nil, err
	}
	if err := e.reopen(); err != nil {
		return nil, err
	}
	m := img.m.clone()
	if err := e.checkTable(m); err != nil {
		return nil, err
	}
	res := &soloResult{}
	var cs []*client
	start := e.d.Stats().Snap()
	for role := 0; role < clients; role++ {
		c := newClient(e, w, cfg, m, role, phaseForward, seed, tr)
		cs = append(cs, c)
		before := e.d.Stats().Snap()
		t0 := time.Now()
		for i := 0; i < cfg.tracedTxns; i++ {
			w.step[role](c)
		}
		res.elapsedS += time.Since(t0).Seconds()
		res.byRole[role] = trace.Diff(before, e.d.Stats().Snap())
		res.txns += c.attempted
		res.rwTxns += len(c.rwDone)
		res.failed += c.failed
		if c.failure != "" {
			res.failures = append(res.failures, c.failure)
		}
	}
	res.diff = trace.Diff(start, e.d.Stats().Snap())
	res.records = e.d.Log().NumRecords()
	m.apply(cs)
	if err := e.check(m); err != nil {
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf("after the one-client run: %v", err))
	}
	for role := 0; role < clients; role++ {
		d := res.byRole[role]
		if w.readOnly[role] && (d.TotalLocks() != 0 || d.LogRecords != 0) {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("snapshot reader made %d lock calls and wrote %d log records", d.TotalLocks(), d.LogRecords))
		}
	}
	return res, nil
}

// tracedResult is what a traced run reports.
type tracedResult struct {
	metrics   metrics
	attempted int
	failed    int
	failures  []string
}

// tracedRun produces every per-layer metric of one workload:
//
//   - one repetition with two clients (tracing off) for the counters only
//     concurrency moves (waits, deadlocks, group commit, live chains) and the
//     ungated end-to-end candidates, its restarts recorded as recovery spans;
//   - the one-client run twice with the same seed, untraced and traced, for
//     the exact per-transaction counts, the facade spans and the overhead;
//   - the layer probes, shaped by the counts of the one-client run.
func tracedRun(cfg config, w *workload, seed int64, traceOut string) (*tracedResult, error) {
	cfg.builds, cfg.reps = 1, 1
	img, err := buildImage(cfg, w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	tr := newTracer(cfg.tracedTxns * clients * 8)
	win, err := img.runRep(seed, 0, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: two-client repetition: %w", w.name, err)
	}
	calibs := []float64{win.calibNs, calibrate()}
	plain, err := img.soloRun(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: one-client run: %w", w.name, err)
	}
	calibs = append(calibs, calibrate())
	traced, err := img.soloRun(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced one-client run: %w", w.name, err)
	}
	res := &tracedResult{metrics: make(metrics)}
	res.attempted = win.attempted + plain.txns + traced.txns + 1
	res.failed = win.failed + plain.failed + traced.failed
	res.failures = append(append(win.failures, plain.failures...), traced.failures...)
	if !maps.Equal(counterMap(plain.diff), counterMap(traced.diff)) {
		res.failed++
		res.failures = append(res.failures, "the traced and untraced one-client runs disagree on their counts")
	}

	m := res.metrics
	countMetrics(m, traced, win)
	recoveryMetrics(m, win.offline, win.online)
	spanMetrics(m, summarize(tr.spans), traced.txns)
	m["trace.overhead_share"] = 1 - ratio(float64(traced.txns)/traced.elapsedS, float64(plain.txns)/plain.elapsedS)
	calibs = append(calibs, calibrate())
	m["env.calibration_spread"] = spreadOf(calibs)
	for _, d := range ungatedEndToEnd {
		m[d.name] = endToEndFuncs[d.name](win.sample())
	}
	if err := img.probe(m, seed); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	budget(m, plain)

	counters := counterMap(traced.diff)
	path := filepath.Join(traceOut, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeTrace(path, w.name, seed, tr.spans, counters, m); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans and the counter diff written to %s\n", len(tr.spans), path)
	return res, nil
}

// counterMap is the counter diff a traced run writes out: the counts one
// goroutine determines, which must repeat exactly for one seed.
func counterMap(d trace.Snapshot) map[string]uint64 {
	return map[string]uint64{
		"lock_calls": d.TotalLocks(), "latch_acquires": d.LatchAcquires, "tree_latch_acquires": d.TreeLatchAcquires,
		"page_fixes": d.PageFixes, "page_misses": d.PageMisses, "page_writes": d.PageWrites,
		"page_evicted": d.PageEvicted, "evictions_dirty": d.EvictionsDirty,
		"log_records": d.LogRecords, "log_bytes": d.LogBytes, "log_forces": d.LogForces,
		"traversals": d.Traversals, "page_splits": d.PageSplits, "page_deletes": d.PageDeletes,
		"versions_pushed": d.VersionsPushed, "snapshot_reads": d.SnapshotReads,
	}
}

// countMetrics fills the count metrics: work counts per transaction from the
// one-client run, concurrency counts from the two-client window.
func countMetrics(m metrics, solo *soloResult, win *repResult) {
	d, n := solo.diff, float64(solo.txns)
	per := func(c uint64) float64 { return ratio(float64(c), n) }
	perK := func(c uint64) float64 { return 1000 * ratio(float64(c), n) }
	m["lock.calls_per_txn"] = per(d.TotalLocks())
	m["latch.acquires_per_txn"] = per(d.LatchAcquires)
	m["latch.tree_acquires_per_ktxn"] = perK(d.TreeLatchAcquires)
	m["buffer.fixes_per_txn"] = per(d.PageFixes)
	m["buffer.misses_per_txn"] = per(d.PageMisses)
	m["buffer.hit_rate"] = 1 - ratio(float64(d.PageMisses), float64(d.PageFixes))
	m["buffer.evictions_per_txn"] = per(d.PageEvicted)
	m["buffer.dirty_evictions_per_txn"] = per(d.EvictionsDirty)
	m["buffer.eviction_stalls_per_ktxn"] = perK(d.EvictionStalls)
	m["buffer.page_writes_per_txn"] = per(d.PageWrites)
	m["wal.records_per_txn"] = per(d.LogRecords)
	m["wal.bytes_per_txn"] = per(d.LogBytes)
	m["wal.forces_per_txn"] = per(d.LogForces)
	m["wal.records_total"] = float64(solo.records)
	m["core.traversals_per_txn"] = per(d.Traversals)
	m["core.repositions_per_ktxn"] = perK(d.LeafReposition)
	m["core.splits_per_ktxn"] = perK(d.PageSplits)
	m["core.page_deletes_per_ktxn"] = perK(d.PageDeletes)
	m["core.undo_logical_per_ktxn"] = perK(d.UndoLogical)
	m["mvcc.versions_pushed_per_txn"] = per(d.VersionsPushed)

	c, cn := win.diff, win.rwTxns+win.roTxns
	winK := func(v uint64) float64 { return 1000 * ratio(float64(v), cn) }
	m["lock.waits_per_ktxn"] = winK(c.LockWaits)
	m["lock.deadlocks_per_ktxn"] = winK(c.Deadlocks)
	m["lock.timeouts_per_ktxn"] = winK(c.LockTimeouts)
	m["latch.waits_per_ktxn"] = winK(c.LatchWaits)
	m["latch.tree_waits_per_ktxn"] = winK(c.TreeLatchWaits)
	m["wal.group_commit_ratio"] = ratio(float64(c.GroupCommits), win.rwTxns)
	m["wal.watermark_stalls_per_ktxn"] = winK(c.WatermarkStalls)
	m["db.retries_per_ktxn"] = winK(c.TxnRetries)
	m["core.smbit_waits_per_ktxn"] = winK(c.SMBitWaits)
	m["core.ambiguity_restarts_per_ktxn"] = winK(c.AmbiguityRestarts)
	m["mvcc.chain_hit_rate"] = ratio(float64(c.SnapshotChainHits), float64(c.SnapshotReads))
	m["mvcc.chains_live"] = win.chainsLive
	m["mvcc.too_old_per_ktxn"] = winK(c.SnapshotTooOld)
	m["mvcc.reader_lock_calls"] = float64(c.ReadOnlyLockCalls)
}

// recoveryMetrics reports the medians of the public restart reports: pass
// walls and redo counts from the offline restarts, on-demand and drained
// pages and reinstated locks from the online ones.
func recoveryMetrics(m metrics, offline, online []*recovery.Report) {
	med := func(reps []*recovery.Report, f func(*recovery.Report) float64) float64 {
		var vs []float64
		for _, r := range reps {
			vs = append(vs, f(r))
		}
		return median(vs)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	m["recovery.records_seen"] = med(offline, func(r *recovery.Report) float64 { return float64(r.RecordsSeen) })
	m["recovery.redo_applied"] = med(offline, func(r *recovery.Report) float64 { return float64(r.RedosApplied) })
	m["recovery.redo_skipped"] = med(offline, func(r *recovery.Report) float64 { return float64(r.RedosSkipped) })
	m["recovery.analysis_ms"] = med(offline, func(r *recovery.Report) float64 { return ms(r.AnalysisWall) })
	m["recovery.redo_ms"] = med(offline, func(r *recovery.Report) float64 { return ms(r.RedoWall) })
	m["recovery.undo_ms"] = med(offline, func(r *recovery.Report) float64 { return ms(r.UndoWall) })
	m["recovery.redo_records_per_s"] = med(offline, func(r *recovery.Report) float64 {
		return ratio(float64(r.RedosApplied), r.RedoWall.Seconds())
	})
	m["recovery.pages_on_demand"] = med(online, func(r *recovery.Report) float64 { return float64(r.PagesOnDemand) })
	m["recovery.pages_drained"] = med(online, func(r *recovery.Report) float64 { return float64(r.PagesDrained) })
	m["recovery.locks_reinstated"] = med(online, func(r *recovery.Report) float64 { return float64(r.LocksRestored) })
}

// spanMetrics reports the facade spans as mean ns per call, and the mean self
// time of the root span per transaction (begin, retry and backoff).
func spanMetrics(m metrics, sum [numSpanNames]spanSummary, txns int) {
	for name, metric := range map[spanName]string{
		spGet: "db.get_ns", spUpdate: "db.update_ns", spInsert: "db.insert_ns", spDelete: "db.delete_ns",
		spScan16: "db.scan16_ns", spRoGet: "db.ro_get_ns", spRoScan16: "db.ro_scan16_ns",
		spCommitForce: "db.commit_force_ns", spCommitAck: "db.commit_ack_ns",
	} {
		m[metric] = ratio(float64(sum[name].Total), float64(sum[name].Count))
	}
	m["db.runtxn_self_ns"] = ratio(float64(sum[spRunTxn].SelfNs), float64(txns))
}

// budget attributes the one-client mean transaction latency to the leaf
// layers: calls per transaction times probe time per call. What the probes do
// not explain (tree and heap logic, the facade, the runtime) is unattributed.
func budget(m metrics, plain *soloResult) {
	latency := ratio(plain.elapsedS*1e9, float64(plain.txns))
	rwShare := ratio(float64(plain.rwTxns), float64(plain.txns))
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	ns := map[string]float64{
		"lock":  m["lock.calls_per_txn"]*m["lock.request_ns"] + rwShare*m["lock.release_all_ns"],
		"latch": m["latch.acquires_per_txn"] * m["latch.acquire_release_ns"],
		"buffer": m["buffer.fixes_per_txn"]*m["buffer.fix_hit_ns"] +
			m["buffer.misses_per_txn"]*pos(m["buffer.fix_miss_ns"]-m["buffer.fix_hit_ns"]-m["storage.page_read_ns"]),
		"storage": m["buffer.misses_per_txn"]*m["storage.page_read_ns"] + m["buffer.page_writes_per_txn"]*m["storage.page_write_ns"],
		"wal":     m["wal.records_per_txn"]*m["wal.append_ns"] + m["wal.forces_per_txn"]*m["wal.force_ns"],
		"txn":     rwShare * pos(m["txn.begin_commit_ns"]-2*m["wal.append_ns"]-m["wal.force_ns"]),
		"mvcc":    m["mvcc.versions_pushed_per_txn"]*m["mvcc.push_commit_ns"] + ratio(float64(plain.diff.SnapshotReads), float64(plain.txns))*m["mvcc.read_ns"],
	}
	rest := 1.0
	for layer, v := range ns {
		share := ratio(v, latency)
		m["budget."+layer+"_share"] = share
		rest -= share
	}
	m["budget.unattributed_share"] = rest
}
