package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

const (
	clients   = 2 // closed-loop client goroutines; never more than nproc
	valueSize = 100
	tableName = "t"
	txnBatch  = 64 // rows per transaction when building an image

	// Key numbers. Static rows are 0..rows-1; each churn queue owns a range
	// closed by a sentinel row that is never deleted, so the next-key lock of
	// a queue's head insert never reaches into the other client's range.
	queueSpan = 10_000_000
	loserBase = 90_000_000
	loserRows = 64

	// wal/reserve.go packs the record count into 24 bits and panics past it.
	// A repetition that would pass half of that aborts the run instead.
	walRecordCap   = 1 << 24
	walRecordLimit = walRecordCap / 2
)

var errRecordCap = errors.New("engine-lifetime guard: this repetition would pass half of the WAL's 24-bit record cap; shorten the repetition")

func queueBase(client int) int     { return (client + 1) * queueSpan }
func queueSentinel(client int) int { return queueBase(client) + queueSpan - 1 }

func keyOf(n int) []byte { return []byte(fmt.Sprintf("k%08d", n)) }

// Values are 100 bytes: the row's key number, a stamp naming the write that
// produced it, and a fixed filler. A read checks all three.
func putValue(buf []byte, keyNum int, stamp uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(keyNum))
	binary.LittleEndian.PutUint64(buf[8:16], stamp)
	for i := 16; i < valueSize; i++ {
		buf[i] = byte('a' + i%26)
	}
}

func parseValue(v []byte) (keyNum int, stamp uint64, ok bool) {
	if len(v) != valueSize {
		return 0, 0, false
	}
	for i := 16; i < valueSize; i++ {
		if v[i] != byte('a'+i%26) {
			return 0, 0, false
		}
	}
	return int(binary.LittleEndian.Uint64(v[0:8])), binary.LittleEndian.Uint64(v[8:16]), true
}

func parseKey(k []byte) (int, bool) {
	if len(k) != 9 || k[0] != 'k' {
		return 0, false
	}
	n := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// model is the committed state the engine must hold: the stamp of the last
// acknowledged write of every static row, and each churn queue's live window.
// Queue and sentinel rows are written once, stamped with their key number.
type model struct {
	stamps   []uint64
	queues   bool
	qlo, qhi [clients]int
}

func (m *model) clone() *model {
	c := *m
	c.stamps = append([]uint64(nil), m.stamps...)
	return &c
}

// modelRow is one row the table must hold.
type modelRow struct {
	n     int
	stamp uint64
}

// expected lists every row the table must hold, in key order: the static rows,
// then per churn queue its live window and its sentinel. Its length is the
// row-count invariant.
func (m *model) expected() []modelRow {
	rows := make([]modelRow, 0, len(m.stamps))
	for n, s := range m.stamps {
		rows = append(rows, modelRow{n, s})
	}
	if !m.queues {
		return rows
	}
	for c := 0; c < clients; c++ {
		for i := m.qlo[c]; i < m.qhi[c]; i++ {
			rows = append(rows, modelRow{queueBase(c) + i, uint64(queueBase(c) + i)})
		}
		rows = append(rows, modelRow{queueSentinel(c), uint64(queueSentinel(c))})
	}
	return rows
}

// ack is one acknowledged write of a static row. Commit LSNs order the acks
// of different clients: with early lock release the acknowledgements of two
// writers of one hot key can arrive in either order.
type ack struct {
	lsn   wal.LSN
	stamp uint64
}

// apply folds the clients' acknowledged writes into the model.
func (m *model) apply(cs []*client) {
	last := make(map[int]ack)
	for _, c := range cs {
		for n, a := range c.acked {
			if a.lsn > last[n].lsn {
				last[n] = a
			}
		}
		if m.queues {
			m.qlo[c.role], m.qhi[c.role] = c.qlo, c.qhi
		}
	}
	for n, a := range last {
		m.stamps[n] = a.stamp
	}
}

// engine is one live engine instance with its open table handle.
type engine struct {
	d    *db.DB
	t    *db.Table
	keys [][]byte // static row keys, shared and read-only
}

func (e *engine) reopen() error {
	t, err := e.d.Table(tableName)
	if err != nil {
		return err
	}
	e.t = t
	return nil
}

// checkTable reads the whole table through one snapshot transaction and
// compares it to the model: same keys in the same order, every value the one
// last acknowledged, nothing else visible (in particular no loser row).
func (e *engine) checkTable(m *model) error {
	want := m.expected()
	i := 0
	err := e.d.RunReadOnly(func(tx *txn.Tx) error {
		i = 0
		return e.t.Scan(tx, nil, nil, func(r db.Row) (bool, error) {
			n, okKey := parseKey(r.Key)
			vn, stamp, okVal := parseValue(r.Value)
			switch {
			case !okKey || !okVal || vn != n:
				return false, fmt.Errorf("row %d: malformed row %q", i, r.Key)
			case i >= len(want):
				return false, fmt.Errorf("row %d: unexpected extra row k%08d", i, n)
			case want[i].n != n:
				return false, fmt.Errorf("row %d: got k%08d, model has k%08d", i, n, want[i].n)
			case want[i].stamp != stamp:
				return false, fmt.Errorf("k%08d: stamp %#x, model has %#x", n, stamp, want[i].stamp)
			}
			i++
			return true, nil
		})
	})
	if err != nil {
		return fmt.Errorf("table does not equal the committed model: %w", err)
	}
	if i != len(want) {
		return fmt.Errorf("table does not equal the committed model: %d rows, model has %d", i, len(want))
	}
	return nil
}

// check runs the untimed correctness checks on a quiesced engine.
func (e *engine) check(m *model) error {
	if err := e.d.VerifyConsistency(); err != nil {
		return fmt.Errorf("VerifyConsistency: %w", err)
	}
	return e.checkTable(m)
}

// image is a workload's crash image: the base table, flushed and
// checkpointed, then a redo tail and one in-flight loser, log forced. It is
// only ever forked; every repetition runs on a fresh fork.
type image struct {
	w      *workload
	cfg    config
	d      *db.DB
	m      *model
	keys   [][]byte
	buildS []float64 // seconds per base build (build + flush + checkpoint)
	tailS  float64   // seconds to add the redo tail and the loser
}

func engineOptions(pool int) db.Options {
	// Device-free: no force delay, no page I/O delay, no cleaner. Group commit
	// stays on (the default), every commit forces the log.
	return db.Options{PoolSize: pool, RedoWorkers: 2}
}

// buildBase creates the base table in 64-row transactions, then FlushAll +
// Checkpoint. The static rows go in in a seeded random order, so the heap
// order is unrelated to the key order, as in a table that has lived a while: a
// 16-row scan touches 16 data pages. The churn queues follow in key order.
func buildBase(cfg config, w *workload, keys [][]byte, seed int64) (*engine, *model, error) {
	e := &engine{d: db.Open(engineOptions(w.pool)), keys: keys}
	t, err := e.d.CreateTable(tableName)
	if err != nil {
		return nil, nil, err
	}
	e.t = t
	m := &model{stamps: make([]uint64, cfg.rows), queues: w.queues}
	nums := insertOrder(cfg, seed)
	if w.queues {
		for c := 0; c < clients; c++ {
			for i := 0; i < cfg.queueLen; i++ {
				nums = append(nums, queueBase(c)+i)
			}
			nums = append(nums, queueSentinel(c))
			m.qhi[c] = cfg.queueLen
		}
	}
	var val [valueSize]byte
	for lo := 0; lo < len(nums); lo += txnBatch {
		hi := min(lo+txnBatch, len(nums))
		err := e.d.RunTxn(func(tx *txn.Tx) error {
			for _, n := range nums[lo:hi] {
				stamp := uint64(n)
				if n < cfg.rows {
					stamp = 0
				}
				putValue(val[:], n, stamp)
				if err := e.t.Insert(tx, e.key(n), val[:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("base build: %w", err)
		}
	}
	if err := e.d.Pool().FlushAll(); err != nil {
		return nil, nil, fmt.Errorf("base build: %w", err)
	}
	e.d.Checkpoint()
	return e, m, nil
}

// insertOrder is the seeded order in which a base build inserts the static rows.
func insertOrder(cfg config, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(cfg.rows)
}

func (e *engine) key(n int) []byte {
	if n < len(e.keys) {
		return e.keys[n]
	}
	return keyOf(n)
}

// buildImage sets up a workload: cfg.builds base builds (set-up time is
// their median; the last one is kept), then the workload's redo tail and a
// loser of 64 uncommitted inserts, and a log force.
func buildImage(cfg config, w *workload, seed int64) (*image, error) {
	img := &image{w: w, cfg: cfg, keys: make([][]byte, cfg.rows)}
	for n := range img.keys {
		img.keys[n] = keyOf(n)
	}
	var e *engine
	for i := 0; i < cfg.builds; i++ {
		start := time.Now()
		var err error
		if e, img.m, err = buildBase(cfg, w, img.keys, seed); err != nil {
			return nil, err
		}
		img.buildS = append(img.buildS, time.Since(start).Seconds())
	}
	start := time.Now()
	if err := w.tail(cfg, w, e, img.m, seed); err != nil {
		return nil, fmt.Errorf("redo tail: %w", err)
	}
	loser, err := e.d.Begin()
	if err != nil {
		return nil, err
	}
	var val [valueSize]byte
	for i := 0; i < loserRows; i++ {
		putValue(val[:], loserBase+i, 0)
		if err := e.t.Insert(loser, keyOf(loserBase+i), val[:]); err != nil {
			return nil, fmt.Errorf("loser: %w", err)
		}
	}
	e.d.Log().ForceAll()
	img.tailS = time.Since(start).Seconds()
	img.d = e.d
	return img, nil
}

// fork returns a crashed copy of the image; the caller restarts it.
func (img *image) fork() *engine {
	return &engine{d: img.d.Fork(), keys: img.keys}
}
