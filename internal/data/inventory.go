package data

import (
	"math/bits"
	"sync"

	"ariesim/internal/storage"
)

// The inventory's queues. Queue 0 holds pages carrying a ghost record, in
// the order the deletes happened: the oldest deleter is the likeliest to
// have committed. Queue c > 0 holds pages whose real free bytes lie in
// [2^(c-1), 2^c), most recently touched first: that page is the likeliest
// to still be in the buffer pool.
const (
	ghostQueue = 0
	// numQueues covers bits.Len of any free count below
	// storage.MaxPageSize (2^15), plus the ghost queue.
	numQueues = 16
	// minListed is the smallest real free space worth remembering a page
	// for; below it a ghost-free page counts as full.
	minListed = 16
	// boundaryScan bounds the look into the class that straddles the
	// wanted size, where only some pages fit.
	boundaryScan = 8
)

// inventory is the volatile free-space inventory of one table handle: the
// pages believed to have room, by size class, the pages holding a ghost,
// and the chain's tail. It is consulted before any page is fixed and is
// only ever a belief — every candidate is validated under its page latch
// and whoever holds that latch reports what the page really looks like.
// It is never logged and dies with the handle.
//
// mu is a leaf: the type holds no pool, latch or transaction reference, so
// nothing can be waited for while it is held. Callers may hold a page latch.
type inventory struct {
	mu    sync.Mutex
	tail  storage.PageID
	pages map[storage.PageID]*invNode
	q     [numQueues]struct{ head, tail *invNode }
}

// invNode is one page the inventory has heard of. It stays in pages once
// made; q is -1 while the page is full or out on a probe.
type invNode struct {
	pid        storage.PageID
	free       int // storage.Page.FreeSpace at the last report
	q          int
	prev, next *invNode
}

func newInventory(tail storage.PageID) *inventory {
	return &inventory{tail: tail, pages: make(map[storage.PageID]*invNode)}
}

// note records what the holder of pid's latch saw: free real bytes, and
// whether any ghost record is on the page. Reports about one page arrive in
// latch order, so the last one stands.
func (inv *inventory) note(pid storage.PageID, free int, ghost bool) {
	q := -1
	switch {
	case ghost:
		q = ghostQueue
	case free >= minListed:
		q = bits.Len(uint(free))
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	n := inv.pages[pid]
	if n == nil {
		if q < 0 {
			return
		}
		n = &invNode{pid: pid, q: -1}
		inv.pages[pid] = n
	}
	if n.q != q {
		inv.unlink(n)
		n.q = q
		inv.link(n)
	}
	n.free = free
}

// take removes and returns a page believed to hold need more bytes: the
// oldest ghost page if ghosts is set, else a page from a class that
// guarantees the room, else one from the class need falls into. The caller
// probes the page under its latch and reports back through note, which
// lists it again if it still has something to offer.
func (inv *inventory) take(need int, ghosts bool) (storage.PageID, bool) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if n := inv.q[ghostQueue].head; ghosts && n != nil {
		return inv.remove(n), true
	}
	sure := bits.Len(uint(need-1)) + 1 // smallest class whose lower bound is >= need
	for c := sure; c < numQueues; c++ {
		if n := inv.q[c].head; n != nil {
			return inv.remove(n), true
		}
	}
	if b := bits.Len(uint(need)); b < sure {
		for n, i := inv.q[b].head, 0; n != nil && i < boundaryScan; n, i = n.next, i+1 {
			if n.free >= need {
				return inv.remove(n), true
			}
		}
	}
	return storage.InvalidPageID, false
}

func (inv *inventory) tailPage() storage.PageID {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.tail
}

func (inv *inventory) setTail(pid storage.PageID) {
	inv.mu.Lock()
	inv.tail = pid
	inv.mu.Unlock()
}

func (inv *inventory) remove(n *invNode) storage.PageID {
	inv.unlink(n)
	n.q = -1
	return n.pid
}

// link queues n: at the back of the ghost queue, at the front of a class.
func (inv *inventory) link(n *invNode) {
	if n.q < 0 {
		return
	}
	q := &inv.q[n.q]
	if n.q == ghostQueue {
		n.prev, n.next = q.tail, nil
	} else {
		n.prev, n.next = nil, q.head
	}
	if n.prev != nil {
		n.prev.next = n
	} else {
		q.head = n
	}
	if n.next != nil {
		n.next.prev = n
	} else {
		q.tail = n
	}
}

func (inv *inventory) unlink(n *invNode) {
	if n.q < 0 {
		return
	}
	q := &inv.q[n.q]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
