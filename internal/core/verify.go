package core

import (
	"fmt"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
)

// Verification sweeps used by tests, benches, and the crash-torture tool.
// They run on a quiesced engine (no concurrent transactions) and check the
// structural invariants ARIES/IM maintains:
//
//   - every nonleaf high key strictly exceeds every key stored in (the
//     subtree of) its child, and keys ascend left to right;
//   - the leaf level, read through parent pointers, equals the leaf level
//     read through the sibling chain, in order;
//   - no page reachable from the root is empty with SM_Bit clear (the
//     paper's "no empty page remains with no SMO outstanding"), except an
//     empty root;
//   - all slotted-page invariants hold on every reachable page.

// Dump returns every key in the index in order, via the leaf chain.
func (ix *Index) Dump() ([]storage.Key, error) {
	var out []storage.Key
	// Find the leftmost leaf through the tree.
	pid := ix.root
	for {
		f, err := ix.fixLatched(pid, latch.S)
		if err != nil {
			return nil, err
		}
		if f.Page.Type() != storage.PageTypeIndex {
			ix.unfixLatched(f, latch.S)
			return nil, fmt.Errorf("core: dump met non-index page %d", pid)
		}
		if f.Page.IsLeaf() {
			ix.unfixLatched(f, latch.S)
			break
		}
		var next storage.PageID
		if f.Page.NSlots() > 0 {
			_, c, err := storage.DecodeNodeCell(f.Page.MustCell(0))
			if err != nil {
				ix.unfixLatched(f, latch.S)
				return nil, err
			}
			next = c
		} else {
			next = f.Page.Rightmost()
		}
		ix.unfixLatched(f, latch.S)
		pid = next
	}
	// Walk the chain.
	for pid != storage.InvalidPageID {
		f, err := ix.fixLatched(pid, latch.S)
		if err != nil {
			return nil, err
		}
		for i := 0; i < f.Page.NSlots(); i++ {
			k, err := leafKeyAt(f.Page, i)
			if err != nil {
				ix.unfixLatched(f, latch.S)
				return nil, err
			}
			out = append(out, k.Clone())
		}
		next := f.Page.Next()
		ix.unfixLatched(f, latch.S)
		pid = next
	}
	return out, nil
}

// CheckStructure validates the whole tree. It must be called on a
// quiesced index.
func (ix *Index) CheckStructure() error {
	var leavesViaTree []storage.PageID
	var keys []storage.Key
	if err := ix.checkSubtree(ix.root, nil, &leavesViaTree, &keys); err != nil {
		return err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1].Compare(keys[i]) >= 0 {
			return fmt.Errorf("core: keys out of order at %d: %s >= %s", i, keys[i-1], keys[i])
		}
	}
	// Leaf chain must visit the same leaves in the same order.
	var leavesViaChain []storage.PageID
	if len(leavesViaTree) > 0 {
		pid := leavesViaTree[0]
		var prev storage.PageID
		for pid != storage.InvalidPageID {
			f, err := ix.fixLatched(pid, latch.S)
			if err != nil {
				return err
			}
			if f.Page.Prev() != prev {
				id := f.Page.Prev()
				ix.unfixLatched(f, latch.S)
				return fmt.Errorf("core: leaf %d back-pointer %d, want %d", pid, id, prev)
			}
			next := f.Page.Next()
			ix.unfixLatched(f, latch.S)
			leavesViaChain = append(leavesViaChain, pid)
			prev, pid = pid, next
		}
	}
	if len(leavesViaChain) != len(leavesViaTree) {
		return fmt.Errorf("core: chain sees %d leaves, tree sees %d", len(leavesViaChain), len(leavesViaTree))
	}
	for i := range leavesViaTree {
		if leavesViaChain[i] != leavesViaTree[i] {
			return fmt.Errorf("core: leaf order mismatch at %d: chain %d, tree %d", i, leavesViaChain[i], leavesViaTree[i])
		}
	}
	return nil
}

// checkSubtree validates page pid whose keys must all be < upper (nil =
// unbounded), appending leaves and keys in order.
func (ix *Index) checkSubtree(pid storage.PageID, upper *storage.Key, leaves *[]storage.PageID, keys *[]storage.Key) error {
	f, err := ix.fixLatched(pid, latch.S)
	if err != nil {
		return err
	}
	defer ix.unfixLatched(f, latch.S)
	p := f.Page
	if p.Type() != storage.PageTypeIndex {
		return fmt.Errorf("core: page %d reachable from root is %v", pid, p.Type())
	}
	if err := p.CheckInvariants(); err != nil {
		return err
	}
	if p.NSlots() == 0 && !p.SMBit() {
		if p.IsLeaf() && pid != ix.root {
			return fmt.Errorf("core: empty leaf %d reachable with SM_Bit clear", pid)
		}
		if !p.IsLeaf() && p.Rightmost() == storage.InvalidPageID {
			return fmt.Errorf("core: childless nonleaf %d reachable with SM_Bit clear", pid)
		}
	}
	if p.IsLeaf() {
		*leaves = append(*leaves, pid)
		for i := 0; i < p.NSlots(); i++ {
			k, err := leafKeyAt(p, i)
			if err != nil {
				return err
			}
			if upper != nil && k.Compare(*upper) >= 0 {
				return fmt.Errorf("core: leaf %d key %s violates high key %s", pid, k, *upper)
			}
			*keys = append(*keys, k.Clone())
		}
		return nil
	}
	var prevHigh *storage.Key
	for i := 0; i < p.NSlots(); i++ {
		hk, child, err := storage.DecodeNodeCell(p.MustCell(i))
		if err != nil {
			return err
		}
		hkC := hk.Clone()
		if prevHigh != nil && prevHigh.Compare(hkC) >= 0 {
			return fmt.Errorf("core: nonleaf %d high keys out of order at %d", pid, i)
		}
		if upper != nil && hkC.Compare(*upper) > 0 {
			return fmt.Errorf("core: nonleaf %d high key %s exceeds bound %s", pid, hkC, *upper)
		}
		if err := ix.checkSubtree(child, &hkC, leaves, keys); err != nil {
			return err
		}
		prevHigh = &hkC
	}
	if p.Rightmost() == storage.InvalidPageID {
		if p.NSlots() > 0 {
			return fmt.Errorf("core: nonleaf %d has separators but no rightmost child", pid)
		}
		return nil
	}
	return ix.checkSubtree(p.Rightmost(), upper, leaves, keys)
}

// LeafOf returns the leaf page currently holding key (tests).
func (ix *Index) LeafOf(key storage.Key) (storage.PageID, bool, error) {
	pid := ix.root
	for {
		f, err := ix.fixLatched(pid, latch.S)
		if err != nil {
			return 0, false, err
		}
		if f.Page.IsLeaf() {
			_, present, err := leafFind(f.Page, key)
			ix.unfixLatched(f, latch.S)
			return pid, present, err
		}
		child, _, err := nodeChildFor(f.Page, key)
		ix.unfixLatched(f, latch.S)
		if err != nil {
			return 0, false, err
		}
		pid = child
	}
}

// Height returns the tree height (leaf = 1), for tests and benches.
func (ix *Index) Height() (int, error) {
	f, err := ix.fixLatched(ix.root, latch.S)
	if err != nil {
		return 0, err
	}
	h := int(f.Page.Level()) + 1
	ix.unfixLatched(f, latch.S)
	return h, nil
}
