// Package ariesim is a from-scratch Go implementation of ARIES/IM — the
// index concurrency-control and recovery method of Mohan & Levine,
// "ARIES/IM: An Efficient and High Concurrency Index Management Method
// Using Write-Ahead Logging" (SIGMOD 1992) — together with every substrate
// the method assumes: the ARIES write-ahead-logging recovery core (CLRs,
// nested top actions, three-pass restart, fuzzy checkpoints, media
// recovery), a multi-granularity lock manager, S/X page latches, a
// steal/no-force buffer pool, slotted byte-level pages, and a record
// manager — plus the ARIES/KVL and System R-style locking baselines the
// paper compares against.
//
// This package is the public façade: a small transactional table API over
// the full engine. The engine guarantees serializability (repeatable
// read) through ARIES/IM's data-only key locking and next-key locking,
// and full crash recovery through ARIES restart. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-reproduction results.
//
//	db := ariesim.Open(ariesim.Options{})
//	tbl, _ := db.CreateTable("accounts")
//	tx, _ := db.Begin() // fails with ErrCrashed while the engine is down
//	_ = tbl.Insert(tx, []byte("alice"), []byte("100"))
//	_ = tx.Commit()
//	db.Crash()        // lose all volatile state
//	_, _ = db.Restart() // ARIES analysis / redo / undo
package ariesim

import (
	"io"

	"ariesim/internal/core"
	"ariesim/internal/db"
	"ariesim/internal/lock"
	"ariesim/internal/recovery"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Options configures an engine. The zero value is a 4 KiB-page, 256-frame,
// record-granularity ARIES/IM engine.
type Options = db.Options

// DB is an engine instance: simulated disk + WAL + buffer pool + lock,
// transaction, record and index managers.
type DB = db.DB

// Table is a transactional table: a record heap plus a unique primary
// index, with optional secondary indexes.
type Table = db.Table

// Row is one scan result.
type Row = db.Row

// KeySpec is a secondary index's key (Table.CreateIndex), stored with the
// index's definition: the part of a row's value the index is ordered by.
type KeySpec = db.KeySpec

// Tx is a transaction handle. Commit forces the log; Rollback undoes all
// work through compensation log records.
type Tx = txn.Tx

// RestartReport summarizes a recovery run (records analyzed, redone,
// losers undone, locks reinstated).
type RestartReport = recovery.Report

// Stats is the engine instrumentation: lock calls by space/mode/duration,
// latch and page counters, log volume, undo/redo shape.
type Stats = trace.Stats

// Protocol selects the index locking protocol.
type Protocol = core.Protocol

// Locking protocols: ARIESIM is the paper's data-only locking; the others
// exist for comparison benchmarks.
const (
	ProtocolARIESIM       = core.DataOnly
	ProtocolIndexSpecific = core.IndexSpecific
	ProtocolARIESKVL      = core.KVL
	ProtocolSystemR       = core.SystemR
)

// Granularity selects the data-lock granularity.
type Granularity = lock.Granularity

// Data lock granularities (paper §2.1: flexible granularities).
const (
	GranularityRecord = lock.GranRecord
	GranularityPage   = lock.GranPage
)

// Errors surfaced by table operations.
var (
	// ErrNotFound reports a missing row.
	ErrNotFound = db.ErrNotFound
	// ErrDuplicate reports a primary-key violation; the transaction holds
	// a lock making the violation repeatable (§2.4).
	ErrDuplicate = db.ErrDuplicate
	// ErrDeadlock reports that the transaction was chosen as a deadlock
	// victim; roll it back and retry (DB.RunTxn does both automatically).
	ErrDeadlock = lock.ErrDeadlock
	// ErrLockTimeout reports a lock wait that exceeded the configured
	// bound; like a deadlock abort it is repaired by rollback + retry.
	ErrLockTimeout = lock.ErrLockTimeout
	// ErrCrashed reports that the engine is down (after Crash) and must be
	// Restarted before it accepts new transactions.
	ErrCrashed = db.ErrCrashed
	// ErrMediaFailure reports a corrupt page that media recovery could not
	// rebuild from the image copy and log.
	ErrMediaFailure = db.ErrMediaFailure
)

// RunTxnOpts tunes DB.RunTxnWith's automatic retry loop (attempt bound,
// backoff shape, jitter seed, commit-ack callback).
type RunTxnOpts = db.RunTxnOpts

// Open creates a fresh engine on a new simulated disk.
func Open(opts Options) *DB { return db.Open(opts) }

// OpenStandby builds a warm standby from a shipped log archive (see
// DB.ArchiveLog and ReadLogArchive: the stable log's stored bytes in one
// self-checking frame), replaying the log page-oriented onto a fresh disk —
// the log-shipping pattern §3's redo design makes possible. The schema
// comes with the log: the catalog is a logged heap.
func OpenStandby(opts Options, shipped *Log) (*DB, *RestartReport, error) {
	return db.OpenStandby(opts, shipped)
}

// Log is the write-ahead log manager (exposed for archiving and standby
// construction).
type Log = wal.Log

// ReadLogArchive reconstructs a Log from an archive stream produced by
// DB.ArchiveLog. A stream cut short, or whose last record is damaged, still
// yields the intact prefix, together with a torn-tail error; any other
// damage rejects the stream.
func ReadLogArchive(r io.Reader) (*Log, error) { return wal.ReadArchive(r) }
