package core

import (
	"errors"
	"fmt"
	"sync"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Config describes an index at creation/open time.
type Config struct {
	ID       uint32
	Unique   bool
	Protocol Protocol
	// Granularity of data locks (record vs data page); must match the
	// record manager's setting so key locks and record locks coincide.
	Granularity lock.Granularity
}

// Errors returned by index operations.
var (
	// ErrDuplicate reports a unique-key violation. The violating
	// transaction retains a commit-duration S lock on the existing key so
	// the error is repeatable (paper §2.4).
	ErrDuplicate = errors.New("core: unique key violation")
	// ErrKeyNotFound reports a delete of a key that is not in the index.
	ErrKeyNotFound = errors.New("core: key not found")
)

// Manager owns every index of an engine and routes undo by index ID.
type Manager struct {
	pool  *buffer.Pool
	stats *trace.Stats

	mu      sync.RWMutex
	indexes map[uint32]*Index
}

// NewManager creates an index manager over pool.
func NewManager(pool *buffer.Pool, stats *trace.Stats) *Manager {
	return &Manager{pool: pool, stats: trace.OrNew(stats), indexes: make(map[uint32]*Index)}
}

// Index is one B+-tree. The root page ID is fixed for the index's
// lifetime (a root split pushes the root's content down to a fresh child
// and splits that), so no mutable root pointer exists.
type Index struct {
	cfg  Config
	root storage.PageID

	pool      *buffer.Pool
	stats     *trace.Stats
	mgr       *Manager
	treeLatch *latch.Latch
}

// CreateIndex allocates and formats the root (initially an empty leaf)
// within tx and registers the index.
func (m *Manager) CreateIndex(tx *txn.Tx, cfg Config) (*Index, error) {
	root, err := space.Alloc(tx, m.pool)
	if err != nil {
		return nil, err
	}
	f, err := m.pool.Fix(root)
	if err != nil {
		return nil, err
	}
	f.Latch.Acquire(latch.X)
	tx.ApplyUpdate(m.pool, f, ApplyRedo, wal.OpIdxFormat, formatPayload{Index: cfg.ID}.encode(), false)
	f.Latch.Release(latch.X)
	m.pool.Unfix(f)
	return m.register(cfg, root), nil
}

// OpenIndex rebinds an existing index (after restart) and registers it.
func (m *Manager) OpenIndex(cfg Config, root storage.PageID) *Index {
	return m.register(cfg, root)
}

func (m *Manager) register(cfg Config, root storage.PageID) *Index {
	ix := &Index{
		cfg: cfg, root: root, pool: m.pool, stats: m.stats, mgr: m,
		treeLatch: latch.NewTree(m.stats),
	}
	m.mu.Lock()
	m.indexes[cfg.ID] = ix
	m.mu.Unlock()
	return ix
}

// Lookup returns a registered index.
func (m *Manager) Lookup(id uint32) *Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.indexes[id]
}

// ID returns the index's identifier.
func (ix *Index) ID() uint32 { return ix.cfg.ID }

// Root returns the fixed root page ID.
func (ix *Index) Root() storage.PageID { return ix.root }

// Unique reports whether the index enforces unique key values.
func (ix *Index) Unique() bool { return ix.cfg.Unique }

// Protocol returns the locking protocol in force.
func (ix *Index) Protocol() Protocol { return ix.cfg.Protocol }

// Tree latch helpers (§2.1). Instant S acquisition is the traverser's
// "wait for the SMO to finish" primitive (Fig 4, 6, 7).

func (ix *Index) treeWaitInstantS() {
	ix.treeLatch.AcquireInstant(latch.S)
}

// treeTryInstantS attempts the instant S without blocking (used while a
// page latch is held: the tree latch must never be waited for under a
// page latch).
func (ix *Index) treeTryInstantS() bool {
	if ix.treeLatch.TryAcquire(latch.S) {
		ix.treeLatch.Release(latch.S)
		return true
	}
	return false
}

// treeHold represents a held tree latch that must be released.
type treeHold struct {
	ix   *Index
	mode latch.Mode
}

func (h *treeHold) release() {
	if h != nil {
		h.ix.treeLatch.Release(h.mode)
	}
}

// treeAcquireS holds the tree latch in S for the duration of a boundary-
// key delete (Fig 7).
func (ix *Index) treeAcquireS() *treeHold {
	ix.treeLatch.Acquire(latch.S)
	return &treeHold{ix: ix, mode: latch.S}
}

// treeTryS is the conditional variant, legal while page latches are held.
func (ix *Index) treeTryS() (*treeHold, bool) {
	if ix.treeLatch.TryAcquire(latch.S) {
		return &treeHold{ix: ix, mode: latch.S}, true
	}
	return nil, false
}

// treeAcquireSMO takes the serialization an SMO runs under: the tree
// latch in X, so SMOs on one index are fully serialized (§2.1). No page
// latches may be held.
func (ix *Index) treeAcquireSMO() *treeHold {
	ix.treeLatch.Acquire(latch.X)
	return &treeHold{ix: ix, mode: latch.X}
}

// Page-shape helpers (callers hold the page latch).

// leafLowerBound returns the position of the first leaf cell >= k.
func leafLowerBound(p *storage.Page, k storage.Key) (int, error) {
	lo, hi := 0, p.NSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		ck, err := storage.DecodeLeafCell(p.MustCell(mid))
		if err != nil {
			return 0, err
		}
		if ck.Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// leafKeyAt decodes the leaf cell at pos.
func leafKeyAt(p *storage.Page, pos int) (storage.Key, error) {
	return storage.DecodeLeafCell(p.MustCell(pos))
}

// leafFind probes a latched leaf for the exact key k: pos is where k sits,
// or where it would go (the first key >= k), present whether it is there.
func leafFind(p *storage.Page, k storage.Key) (pos int, present bool, err error) {
	pos, err = leafLowerBound(p, k)
	if err != nil || pos >= p.NSlots() {
		return pos, false, err
	}
	at, err := leafKeyAt(p, pos)
	return pos, err == nil && at.Compare(k) == 0, err
}

// nodeChildFor returns the child to descend into for key k: the child of
// the first high key strictly greater than k, else the rightmost child.
// unbounded reports that k fell past every high key (the Fig 4 ambiguity
// test needs it).
func nodeChildFor(p *storage.Page, k storage.Key) (child storage.PageID, unbounded bool, err error) {
	lo, hi := 0, p.NSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		hk, _, derr := storage.DecodeNodeCell(p.MustCell(mid))
		if derr != nil {
			return 0, false, derr
		}
		if hk.Compare(k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == p.NSlots() {
		return p.Rightmost(), true, nil
	}
	_, c, derr := storage.DecodeNodeCell(p.MustCell(lo))
	return c, false, derr
}

// nodeChildPos locates the entry for child in a parent: its cell position,
// or rightmost=true. Used by SMO propagation under the tree latch.
func nodeChildPos(p *storage.Page, child storage.PageID) (pos int, rightmost bool, err error) {
	for i := 0; i < p.NSlots(); i++ {
		_, c, derr := storage.DecodeNodeCell(p.MustCell(i))
		if derr != nil {
			return 0, false, derr
		}
		if c == child {
			return i, false, nil
		}
	}
	if p.Rightmost() == child {
		return 0, true, nil
	}
	return 0, false, fmt.Errorf("core: child %d not found in parent %d", child, p.ID())
}

// patchNodeChild rewrites the child pointer of the node cell at pos in
// place (the child occupies the cell's trailing 4 bytes).
func patchNodeChild(p *storage.Page, pos int, child storage.PageID) error {
	cell, ok := p.Cell(pos)
	if !ok || len(cell) < 4 {
		return fmt.Errorf("core: page %d has no node cell %d to patch", p.ID(), pos)
	}
	cell[len(cell)-4] = byte(child)
	cell[len(cell)-3] = byte(child >> 8)
	cell[len(cell)-2] = byte(child >> 16)
	cell[len(cell)-1] = byte(child >> 24)
	return nil
}

// pageCells copies every cell payload off an index page.
func pageCells(p *storage.Page) [][]byte {
	out := make([][]byte, p.NSlots())
	for i := range out {
		out[i] = append([]byte(nil), p.MustCell(i)...)
	}
	return out
}

// fixLatched fixes and latches a page in one step.
func (ix *Index) fixLatched(id storage.PageID, m latch.Mode) (*buffer.Frame, error) {
	f, err := ix.pool.Fix(id)
	if err != nil {
		return nil, err
	}
	f.Latch.Acquire(m)
	return f, nil
}

func (ix *Index) unfixLatched(f *buffer.Frame, m latch.Mode) {
	f.Latch.Release(m)
	ix.pool.Unfix(f)
}

// resetBits clears the SM_Bit and (optionally) Delete_Bit on a latched
// page with a redo-only record, as Figs 6 and 7 do once an instant tree
// latch has proven no SMO is in progress. Callers hold the X latch.
func (ix *Index) resetBits(tx *txn.Tx, f *buffer.Frame, clearDelete bool) {
	flags := f.Page.Flags() &^ storage.FlagSMBit
	if clearDelete {
		flags &^= storage.FlagDeleteBit
	}
	if flags == f.Page.Flags() {
		return
	}
	pl := setBitsPayload{Index: ix.cfg.ID, Flags: flags}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxSetBits, pl.encode(), true)
}
