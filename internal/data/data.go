package data

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// ErrNotFound reports a fetch or delete of a RID that holds no live record.
var ErrNotFound = errors.New("data: record not found")

// Manager is the record manager. One Manager serves every table of an
// engine; tables are thin handles over their page chains.
type Manager struct {
	pool *buffer.Pool
	gran lock.Granularity

	// route names the handle whose chain a data page is on, for Undo, which
	// is handed a page and no table. Like the inventories it feeds it is
	// volatile, and routeMu is a leaf.
	routeMu sync.Mutex
	route   map[storage.PageID]*Table

	// testHook, when set by a test, is called at the named points of the
	// placement protocol with the page at hand.
	testHook func(point string, pid storage.PageID)
}

// NewManager creates a record manager over pool using the given lock
// granularity for record locks.
func NewManager(pool *buffer.Pool, gran lock.Granularity) *Manager {
	return &Manager{pool: pool, gran: gran, route: make(map[storage.PageID]*Table)}
}

// Granularity returns the data lock granularity in force.
func (m *Manager) Granularity() lock.Granularity { return m.gran }

// LockName names the data lock protecting rid — the same name ARIES/IM's
// index manager uses as the key lock under data-only locking.
func (m *Manager) LockName(rid storage.RID) lock.Name {
	return lock.DataLockName(m.gran, uint64(rid.Page), rid.Slot)
}

func (m *Manager) setRoute(pid storage.PageID, t *Table) {
	m.routeMu.Lock()
	m.route[pid] = t
	m.routeMu.Unlock()
}

func (m *Manager) tableOf(pid storage.PageID) *Table {
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	return m.route[pid]
}

func (m *Manager) hook(point string, pid storage.PageID) {
	if m.testHook != nil {
		m.testHook(point, pid)
	}
}

// maxProbes bounds the listed pages one insert tries before it goes to the
// tail of the chain.
const maxProbes = 8

// Table is a handle on one table's data page chain.
type Table struct {
	ID        uint64
	FirstPage storage.PageID
	m         *Manager

	// inv says where an insert should look for room. It starts empty; the
	// handle's first insert walks the chain once to fill it (buildMu makes
	// the others wait for that walk, built lets them skip the mutex after).
	inv     *inventory
	built   atomic.Bool
	buildMu sync.Mutex
}

// CreateTable allocates and formats the first data page of a new table
// within tx. The caller persists (ID, FirstPage) in its catalog.
func (m *Manager) CreateTable(tx *txn.Tx, id uint64) (*Table, error) {
	pid, err := space.Alloc(tx, m.pool)
	if err != nil {
		return nil, err
	}
	f, err := m.pool.Fix(pid)
	if err != nil {
		return nil, err
	}
	defer m.pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	tx.ApplyUpdate(m.pool, f, ApplyRedo, wal.OpDataFormat, formatPayload{}.encode(), false)
	t := m.OpenTable(id, pid)
	// A one-page chain needs no walk: the page is the tail and is empty.
	m.setRoute(pid, t)
	t.notePage(f.Page)
	t.built.Store(true)
	return t, nil
}

// OpenTable rebinds a handle to an existing table (after restart).
func (m *Manager) OpenTable(id uint64, firstPage storage.PageID) *Table {
	return &Table{ID: id, FirstPage: firstPage, m: m, inv: newInventory(firstPage)}
}

// notePage reports p to the inventory. The caller holds p's latch.
func (t *Table) notePage(p *storage.Page) {
	ghost := false
	for i, n := 0, p.NSlots(); i < n && !ghost; i++ {
		if cell, ok := p.Cell(i); ok {
			ghost, _ = unwrapCell(cell)
		}
	}
	t.inv.note(p.ID(), p.FreeSpace(), ghost)
}

// buildInventory walks the chain once, under S latches, reporting every
// page and finding the tail. Deletes and rollbacks that run beside it
// report the pages they touch themselves, in latch order with the walk.
func (t *Table) buildInventory() error {
	t.buildMu.Lock()
	defer t.buildMu.Unlock()
	if t.built.Load() {
		return nil
	}
	tail := t.FirstPage
	for pid := t.FirstPage; pid != storage.InvalidPageID; {
		t.m.hook("build-visit", pid)
		f, err := t.m.pool.Fix(pid)
		if err != nil {
			return err
		}
		f.Latch.Acquire(latch.S)
		t.m.setRoute(pid, t)
		t.notePage(f.Page)
		next := f.Page.Next()
		f.Latch.Release(latch.S)
		t.m.pool.Unfix(f)
		tail, pid = pid, next
	}
	t.inv.setTail(tail)
	t.built.Store(true)
	return nil
}

// Insert stores rec and returns its RID, holding a commit-duration X lock
// on it. Under data-only locking this lock doubles as the lock on every
// index key that will reference the record.
//
// Placement asks the inventory for a page before fixing any: first the
// oldest page with a ghost (reclaiming what a committed deleter left), then
// a page with enough real free space. Each candidate is validated under its
// latch; one that turns out wrong is reported as it is and the next is
// tried. A ghost page that cannot be used yet ends the ghost probing for
// this insert — its deleter is still running, most often this transaction
// itself, and younger ghosts are no likelier to be free.
func (t *Table) Insert(tx *txn.Tx, rec []byte) (storage.RID, error) {
	if cellSize(rec) > storage.PageCapacity(t.m.pool.PageSize()) {
		return storage.RID{}, fmt.Errorf("data: record of %d bytes exceeds page capacity", len(rec))
	}
	if !t.built.Load() {
		if err := t.buildInventory(); err != nil {
			return storage.RID{}, err
		}
	}
	ghosts := true
	for probe := 0; probe < maxProbes; probe++ {
		pid, ok := t.inv.take(cellSize(rec)+2, ghosts)
		if !ok {
			break
		}
		rid, _, ghostLeft, err := t.tryInsertOn(tx, pid, rec)
		if err != nil || rid != (storage.RID{}) {
			return rid, err
		}
		if ghostLeft {
			ghosts = false
		}
	}
	// No listed page took the record: go to the tail, and extend the table
	// with fresh pages inside nested top actions, so each page survives
	// even if tx later rolls back (other transactions may have inserted
	// into it meanwhile).
	pid := t.inv.tailPage()
	for attempt := 0; ; attempt++ {
		if attempt > 1_000_000 {
			return storage.RID{}, errors.New("data: insert livelock")
		}
		rid, next, _, err := t.tryInsertOn(tx, pid, rec)
		if err != nil || rid != (storage.RID{}) {
			return rid, err
		}
		if next == storage.InvalidPageID {
			if next, err = t.extend(tx, pid); err != nil {
				return storage.RID{}, err
			}
		}
		t.inv.setTail(next)
		pid = next
	}
}

// tryInsertOn attempts the insert on page pid and reports the page to the
// inventory before unlatching it. It returns the RID on success; with a
// zero RID, next is the page's successor in the chain (InvalidPageID at the
// tail) and ghostLeft says the page still holds a ghost that could not be
// purged.
func (t *Table) tryInsertOn(tx *txn.Tx, pid storage.PageID, rec []byte) (_ storage.RID, next storage.PageID, ghostLeft bool, _ error) {
	for {
		f, err := t.m.pool.Fix(pid)
		if err != nil {
			return storage.RID{}, 0, false, err
		}
		f.Latch.Acquire(latch.X)
		if !f.Page.HasRoomFor(cellSize(rec)) {
			ghostLeft = t.purgeGhosts(tx, f)
		}
		if !f.Page.HasRoomFor(cellSize(rec)) {
			next = f.Page.Next()
			t.unlatch(f)
			return storage.RID{}, next, ghostLeft, nil
		}
		slot := t.freeSlot(f.Page)
		rid := storage.RID{Page: pid, Slot: slot}
		// Lock the new record under the latch; if that had to be waited for
		// (a rare reused slot whose old lock lingers), revalidate from
		// scratch: the page may have changed shape.
		waited, err := tx.LockLatched(t.m.LockName(rid), lock.X, lock.Commit, func() { t.unlatch(f) })
		if err != nil {
			return storage.RID{}, 0, false, err
		}
		if waited {
			continue
		}
		tx.ApplyUpdate(t.m.pool, f, ApplyRedo, wal.OpDataInsert, insertPayload{Slot: slot, Record: rec}.encode(), false)
		t.unlatch(f)
		return rid, 0, false, nil
	}
}

// unlatch ends an insert's hold on f, telling the inventory what the page
// looks like now.
func (t *Table) unlatch(f *buffer.Frame) {
	t.notePage(f.Page)
	f.Latch.Release(latch.X)
	t.m.pool.Unfix(f)
}

// freeSlot picks the insertion slot: the first freed stable slot, or a new
// one at the end of the directory.
func (t *Table) freeSlot(p *storage.Page) uint16 {
	n := p.NSlots()
	for i := 0; i < n; i++ {
		if _, ok := p.Cell(i); !ok {
			return uint16(i)
		}
	}
	return uint16(n)
}

// purgeGhosts physically removes ghost records whose locks are free — the
// deleter committed, so the space is reclaimable. The pass logs one
// redo-only purge record listing every ghost it removes: purges are never
// undone. It reports whether a ghost whose lock is still held was left
// behind.
func (t *Table) purgeGhosts(tx *txn.Tx, f *buffer.Frame) (left bool) {
	var purge []byte // the purge list, built in slot order
	for i := 0; i < f.Page.NSlots(); i++ {
		cell, ok := f.Page.Cell(i)
		if !ok {
			continue
		}
		ghost, _ := unwrapCell(cell)
		if !ghost {
			continue
		}
		rid := storage.RID{Page: f.ID(), Slot: uint16(i)}
		name := t.m.LockName(rid)
		// Skip our own uncommitted deletes.
		if tx.HoldsLock(name) {
			left = true
			continue
		}
		// An instant conditional X grant proves no one holds the lock.
		if err := tx.Lock(name, lock.X, lock.Instant, true); err != nil {
			left = true
			continue
		}
		purge = appendPurgeSlot(purge, uint16(i))
	}
	if purge != nil {
		tx.ApplyUpdate(t.m.pool, f, ApplyRedo, wal.OpDataPurge, purge, true)
	}
	return left
}

// extend appends a fresh data page after tail inside a nested top action
// and returns the page now following tail. The action ends before tail is
// unlatched: nobody can reach the new page, let alone list it, while a
// rollback could still free it.
func (t *Table) extend(tx *txn.Tx, tail storage.PageID) (storage.PageID, error) {
	tok := tx.BeginNTA()
	pid, err := space.Alloc(tx, t.m.pool)
	if err != nil {
		return 0, err
	}
	nf, err := t.m.pool.Fix(pid)
	if err != nil {
		return 0, err
	}
	nf.Latch.Acquire(latch.X)
	tx.ApplyUpdate(t.m.pool, nf, ApplyRedo, wal.OpDataFormat, formatPayload{Prev: tail}.encode(), false)
	nf.Latch.Release(latch.X)
	t.m.pool.Unfix(nf)

	tf, err := t.m.pool.Fix(tail)
	if err != nil {
		return 0, err
	}
	tf.Latch.Acquire(latch.X)
	if next := tf.Page.Next(); next != storage.InvalidPageID {
		// Another transaction extended concurrently; free ours and use theirs.
		tf.Latch.Release(latch.X)
		t.m.pool.Unfix(tf)
		if err := space.Free(tx, t.m.pool, pid); err != nil {
			return 0, err
		}
		tx.EndNTA(tok)
		return next, nil
	}
	tx.ApplyUpdate(t.m.pool, tf, ApplyRedo, wal.OpDataChainFix,
		chainFixPayload{Next: true, Old: storage.InvalidPageID, New: pid}.encode(), false)
	tx.EndNTA(tok)
	tf.Latch.Release(latch.X)
	t.m.pool.Unfix(tf)
	t.m.setRoute(pid, t)
	return pid, nil
}

// Delete ghosts the record at rid. If locked is false the record X lock is
// acquired here; the index manager passes true when the lock is already
// held (data-only locking acquires it once per record operation).
func (t *Table) Delete(tx *txn.Tx, rid storage.RID, locked bool) error {
	if !locked {
		if err := tx.Lock(t.m.LockName(rid), lock.X, lock.Commit, false); err != nil {
			return err
		}
	}
	f, err := t.m.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	defer t.m.pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	cell, ok := f.Page.Cell(int(rid.Slot))
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	if ghost, _ := unwrapCell(cell); ghost {
		return fmt.Errorf("%w: %s (already deleted)", ErrNotFound, rid)
	}
	tx.ApplyUpdate(t.m.pool, f, ApplyRedo, wal.OpDataDelete, slotPayload{Slot: rid.Slot}.encode(), false)
	t.m.hook("delete-note", rid.Page)
	t.inv.note(rid.Page, f.Page.FreeSpace(), true)
	return nil
}

// Update replaces the record at rid with rec in place: one undo-redo log
// record carrying the bytes that differ, the RID unchanged, no index called.
// If locked is false the record X lock is acquired here, as for Delete.
//
// It reports false, having changed and logged nothing, when the update must
// move the record instead (the caller deletes and reinserts): when rec is
// shorter than the record it replaces, or longer than the page has room for.
// A record that shrank would hand its freed bytes to any inserter before the
// updater ended, and the undo could then find no room to grow it back; the
// undo of a grow is a shrink, which always fits.
func (t *Table) Update(tx *txn.Tx, rid storage.RID, rec []byte, locked bool) (bool, error) {
	if !locked {
		if err := tx.Lock(t.m.LockName(rid), lock.X, lock.Commit, false); err != nil {
			return false, err
		}
	}
	f, err := t.m.pool.Fix(rid.Page)
	if err != nil {
		return false, err
	}
	defer t.m.pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	cell, ok := f.Page.Cell(int(rid.Slot))
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	ghost, old := unwrapCell(cell)
	if ghost {
		return false, fmt.Errorf("%w: %s (deleted)", ErrNotFound, rid)
	}
	grow := len(rec) - len(old)
	if grow < 0 || (grow > 0 && f.Page.FreeSpace() < grow) {
		return false, nil
	}
	tx.ApplyUpdate(t.m.pool, f, ApplyRedo, wal.OpDataUpdate, diffUpdate(rid.Slot, old, rec).encode(), false)
	if grow > 0 {
		t.notePage(f.Page) // the listed room shrank
	}
	return true, nil
}

// Fetch returns the record at rid. With lockIt the caller gets a
// commit-duration S lock first (standalone reads); the index fetch path
// passes false because ARIES/IM's index manager has already locked the key
// (= the record) during the index access (paper §2.1).
func (t *Table) Fetch(tx *txn.Tx, rid storage.RID, lockIt bool) ([]byte, error) {
	if lockIt {
		if err := tx.Lock(t.m.LockName(rid), lock.S, lock.Commit, false); err != nil {
			return nil, err
		}
	}
	f, err := t.m.pool.Fix(rid.Page)
	if err != nil {
		return nil, err
	}
	defer t.m.pool.Unfix(f)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	cell, ok := f.Page.Cell(int(rid.Slot))
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	ghost, rec := unwrapCell(cell)
	if ghost {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	return append([]byte(nil), rec...), nil
}

// FetchNoLock reads the record at rid with latches only: no record lock,
// no transaction. Snapshot readers call it after the index positioned
// them; ghost records are reported (not skipped) so the caller can
// distinguish "deleted on the page" from "missing slot" when it consults
// the version store. A missing or reused slot returns
// ok=false rather than an error — on the lock-free path that is a benign
// race with a purge, resolved by the caller's chain re-check.
func (t *Table) FetchNoLock(rid storage.RID) (rec []byte, ghost, ok bool, err error) {
	f, err := t.m.pool.Fix(rid.Page)
	if err != nil {
		return nil, false, false, err
	}
	defer t.m.pool.Unfix(f)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	if f.Page.Type() != storage.PageTypeData {
		return nil, false, false, nil
	}
	cell, present := f.Page.Cell(int(rid.Slot))
	if !present {
		return nil, false, false, nil
	}
	g, raw := unwrapCell(cell)
	if g {
		return nil, true, true, nil
	}
	return append([]byte(nil), raw...), false, true, nil
}

// ScanAll returns every live record in the table, bypassing locking: the
// verification sweep used by tests and the crash tool on a quiesced engine.
func (t *Table) ScanAll() (map[storage.RID][]byte, error) {
	out := make(map[storage.RID][]byte)
	pid := t.FirstPage
	for pid != storage.InvalidPageID {
		f, err := t.m.pool.Fix(pid)
		if err != nil {
			return nil, err
		}
		f.Latch.Acquire(latch.S)
		for i := 0; i < f.Page.NSlots(); i++ {
			cell, ok := f.Page.Cell(i)
			if !ok {
				continue
			}
			if ghost, rec := unwrapCell(cell); !ghost {
				out[storage.RID{Page: pid, Slot: uint16(i)}] = append([]byte(nil), rec...)
			}
		}
		next := f.Page.Next()
		f.Latch.Release(latch.S)
		t.m.pool.Unfix(f)
		pid = next
	}
	return out, nil
}

// ApplyRedo reapplies a data-manager log record to the page during the
// redo pass. The caller holds the page exclusively and has already decided
// by LSN comparison that the record is missing from the page.
func ApplyRedo(p *storage.Page, rec *wal.Record) error {
	switch rec.Op {
	case wal.OpDataFormat:
		pl, err := decodeFormatPayload(rec.Payload)
		if err != nil {
			return err
		}
		p.Format(rec.Page, storage.PageTypeData, 0)
		p.SetPrev(pl.Prev)
		p.SetNext(pl.Next)
		return nil
	case wal.OpDataInsert:
		if rec.IsCLR() {
			return flipGhost(p, rec.Payload, false) // the undo of a delete
		}
		pl, err := decodeInsertPayload(rec.Payload)
		if err != nil {
			return err
		}
		return p.AddCellAt(pl.Slot, wrapRecord(pl.Record)) // fails on an occupied slot
	case wal.OpDataDelete:
		return flipGhost(p, rec.Payload, true)
	case wal.OpDataUpdate:
		pl, err := decodeUpdatePayload(rec.Payload)
		if err != nil {
			return err
		}
		cell, ok := p.Cell(int(pl.Slot))
		if !ok {
			return fmt.Errorf("data: redo update of missing slot %d on page %d", pl.Slot, rec.Page)
		}
		next, err := pl.apply(cell)
		if err != nil {
			return err
		}
		return p.ReplaceCell(pl.Slot, next)
	case wal.OpDataPurge:
		if err := checkPurge(p, rec.Payload); err != nil {
			return err // before any slot is emptied
		}
		for i := 0; i < len(rec.Payload)/2; i++ {
			if err := p.RemoveCell(purgeSlot(rec.Payload, i)); err != nil {
				return err
			}
		}
		return nil
	case wal.OpDataChainFix:
		pl, err := decodeChainFixPayload(rec.Payload)
		if err != nil {
			return err
		}
		if pl.Next {
			p.SetNext(pl.New)
		} else {
			p.SetPrev(pl.New)
		}
		return nil
	case wal.OpDataFree:
		p.Format(rec.Page, storage.PageTypeFree, 0)
		return nil
	default:
		return fmt.Errorf("data: not a data op: %s", rec.Op)
	}
}

// flipGhost ghosts (ghost) or revives the record in the slot a slot payload
// names. The record must be in the other state: a delete or its undo that
// finds anything else is a log that does not match the page.
func flipGhost(p *storage.Page, payload []byte, ghost bool) error {
	pl, err := decodeSlotPayload(payload)
	if err != nil {
		return err
	}
	cell, ok := p.Cell(int(pl.Slot))
	if !ok || len(cell) == 0 {
		return fmt.Errorf("data: slot %d of page %d holds no record", pl.Slot, p.ID())
	}
	if was, _ := unwrapCell(cell); was == ghost {
		return fmt.Errorf("data: slot %d of page %d: ghost is already %v", pl.Slot, p.ID(), ghost)
	}
	cell[0] ^= cellGhost
	return nil
}

// Undo compensates one data-manager record during rollback. Data undos are
// always page-oriented: a ghost keeps its slot and its record's bytes, and
// an update in place only ever grew its record.
func (m *Manager) Undo(tx *txn.Tx, rec *wal.Record) error {
	f, err := m.pool.Fix(rec.Page)
	if err != nil {
		return err
	}
	defer m.pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)

	switch rec.Op {
	case wal.OpDataInsert:
		pl, err := decodeInsertPayload(rec.Payload)
		if err != nil {
			return err
		}
		tx.ApplyCLR(m.pool, f, ApplyRedo, wal.OpDataPurge, appendPurgeSlot(nil, pl.Slot), rec.PrevLSN)
		// The freed slot is room again. A page no handle has walked yet
		// has no route; the walk will see it as it is.
		if t := m.tableOf(rec.Page); t != nil {
			t.notePage(f.Page)
		}
		return nil
	case wal.OpDataDelete:
		// The ghost still holds the record, so the CLR names its slot only.
		tx.ApplyCLR(m.pool, f, ApplyRedo, wal.OpDataInsert, rec.Payload, rec.PrevLSN)
		return nil
	case wal.OpDataUpdate:
		pl, err := decodeUpdatePayload(rec.Payload)
		if err != nil {
			return err
		}
		// Never larger than the record it restores (Update only grows
		// records), so this cannot fail for want of space.
		inv := updatePayload{Slot: pl.Slot, Prefix: pl.Prefix, Suffix: pl.Suffix, After: pl.Before}
		tx.ApplyCLR(m.pool, f, ApplyRedo, wal.OpDataUpdate, inv.encode(), rec.PrevLSN)
		if len(pl.Before) != len(pl.After) {
			if t := m.tableOf(rec.Page); t != nil {
				t.notePage(f.Page) // the grow's room is back
			}
		}
		return nil
	case wal.OpDataFormat:
		// Undoing a table-extension format: the page reverts to a free
		// shell; the FSM undo (a separate record) releases its bit.
		tx.ApplyCLR(m.pool, f, ApplyRedo, wal.OpDataFree, nil, rec.PrevLSN)
		return nil
	case wal.OpDataChainFix:
		pl, err := decodeChainFixPayload(rec.Payload)
		if err != nil {
			return err
		}
		inv := chainFixPayload{Next: pl.Next, Old: pl.New, New: pl.Old}
		tx.ApplyCLR(m.pool, f, ApplyRedo, wal.OpDataChainFix, inv.encode(), rec.PrevLSN)
		return nil
	default:
		return fmt.Errorf("data: cannot undo op %s", rec.Op)
	}
}
