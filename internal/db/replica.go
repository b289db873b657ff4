// Replica role and failover. A hot standby is an engine that never opened:
// it owns a fresh disk, an (initially empty) log that replication joins
// the primary's shipped log bytes to, and a buffer pool that perpetual redo
// (recovery.ApplyRecords) keeps warm. It accepts no transactions — Begin
// fails with ErrCrashed exactly as on a crashed engine — until Promote
// runs restart recovery over the shipped log and opens it as the new
// primary. The replication machinery itself (shipper, channel, standby
// apply loop) lives in internal/repl; this file is the engine-side surface
// it drives.
package db

import (
	"errors"
	"fmt"

	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// ErrNotReplica reports Promote on an engine that is not a replica.
var ErrNotReplica = errors.New("db: not a replica")

// ErrCommitUnacked reports a commit whose record is durable in the local
// log but was not acknowledged by the standby within the commit gate's
// bound. The outcome is AMBIGUOUS by construction: if the primary now
// dies and the standby is promoted, the commit survives exactly when its
// record reached the standby. It is deliberately NOT retryable through
// RunTxn (re-executing could double-apply a commit that did ship); callers
// needing certainty must reconcile against the promoted node.
var ErrCommitUnacked = errors.New("db: commit not acknowledged by standby")

// OpenReplica builds a standby engine: fresh disk, empty log, warm-ready
// pool — and leaves it closed to transactions. Replication joins each
// shipped segment to Log() as the primary's bytes (wal.Log.Receive, which
// forces them, so the LSNs are the primary's by construction) and replays
// its records into Pool() via recovery.ApplyRecords. Promote opens it, and
// its restart reads the schema, each index's key included, from the
// catalog heap the shipped records rebuilt.
func OpenReplica(opts Options) *DB {
	opts = opts.withDefaults()
	d := newDB(opts, storage.NewDisk(opts.PageSize), wal.NewLog(opts.Stats), false)
	d.replica = true
	return d
}

// Promote turns the standby into a serving primary: flush every replayed
// page (legal — the standby never crashed, and its log discipline forces
// records before applying them, so the WAL rule holds), then run the
// normal restart path over the shipped log. Redo is mostly page_LSN skips
// (continuous apply already did the work); undo rolls back whatever the
// old primary had in flight at its death — shipped-but-uncommitted losers.
// With Options.OnlineRestart the promoted node opens after analysis and
// finishes recovering in the background, minimizing failover
// time-to-first-commit.
//
// Fencing off the dead primary's late segments is the replication layer's
// job (repl.Standby.Promote fences its receive loop before calling here);
// this method is engine-side only.
func (d *DB) Promote() (*recovery.Report, error) {
	d.mu.Lock()
	if !d.replica {
		d.mu.Unlock()
		return nil, ErrNotReplica
	}
	d.replica = false
	pool := d.pool
	d.mu.Unlock()
	if err := pool.FlushAll(); err != nil {
		return nil, fmt.Errorf("db: promote flush: %w", err)
	}
	return d.Restart()
}

// SetCommitGate installs the semi-synchronous replication gate: after a
// transaction's commit record is locally durable, commitAcked calls
// gate(commitLSN) and acknowledges the client only if it returns nil —
// i.e. the standby confirmed the record. A failing gate surfaces as
// ErrCommitUnacked (see its ambiguity contract). Nil removes the gate
// (asynchronous shipping: commits ack on local durability alone, and the
// loss window on failover is the shipping lag).
//
// The gate runs while the committer holds the shared epoch lock, so it
// must not call back into the engine and must bound its own wait.
func (d *DB) SetCommitGate(gate func(wal.LSN) error) {
	d.mu.Lock()
	d.commitGate = gate
	d.mu.Unlock()
}
