package core

import (
	"fmt"

	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// ApplyRedo reapplies one index-manager log record to its page. This is
// the whole of ARIES/IM's redo story (§3): redos are always page-oriented —
// no tree traversal, no other page, no index metadata. The caller holds
// the page exclusively and has already decided, by comparing the page_LSN
// with the record's LSN, that the update is missing.
//
// CLR redo funnels through the same switch: a CLR's OpCode is the
// compensating page action (e.g. OpIdxUnsplitLeft), so compensation is
// replayed exactly like forward work.
func ApplyRedo(p *storage.Page, rec *wal.Record) error {
	switch rec.Op {
	case wal.OpIdxInsertKey:
		pl, err := decodeKeyOp(rec.Payload)
		if err != nil {
			return err
		}
		if err := p.InsertCellAt(int(pl.Pos), pl.Cell); err != nil {
			return fmt.Errorf("core: redo insert at %d on page %d: %w", pl.Pos, rec.Page, err)
		}
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxDeleteKey:
		pl, err := decodeKeyOp(rec.Payload)
		if err != nil {
			return err
		}
		if err := p.DeleteCellAt(int(pl.Pos)); err != nil {
			return fmt.Errorf("core: redo delete at %d on page %d: %w", pl.Pos, rec.Page, err)
		}
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxFormat, wal.OpIdxFormatRoot:
		var pl formatPayload
		var err error
		if rec.Op == wal.OpIdxFormat {
			pl, err = decodeFormat(rec.Payload)
		} else {
			var rp rootFormatPayload
			rp, err = decodeRootFormat(rec.Payload)
			pl = rp.formatPayload
		}
		if err != nil {
			return err
		}
		p.Format(rec.Page, storage.PageTypeIndex, pl.Level)
		p.SetFlags(pl.Flags)
		p.SetPrev(pl.Prev)
		p.SetNext(pl.Next)
		p.SetRightmost(pl.Rightmost)
		for i, c := range pl.Cells {
			if err := p.InsertCellAt(i, c); err != nil {
				return fmt.Errorf("core: redo format cell %d on page %d: %w", i, rec.Page, err)
			}
		}
		return nil

	case wal.OpIdxSplitLeft:
		pl, err := decodeSplitLeft(rec.Payload)
		if err != nil {
			return err
		}
		if p.IsLeaf() != (len(pl.Promoted) == 0) {
			return fmt.Errorf("core: redo split-left on page %d (level %d) with a %d-byte promoted key", rec.Page, p.Level(), len(pl.Promoted))
		}
		for p.NSlots() > int(pl.From) {
			if err := p.DeleteCellAt(p.NSlots() - 1); err != nil {
				return err
			}
		}
		if p.IsLeaf() {
			p.SetNext(pl.NewNext)
		} else {
			p.SetRightmost(pl.NewRightmost)
		}
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxUnsplitLeft:
		pl, err := decodeUnsplitLeft(rec.Payload)
		if err != nil {
			return err
		}
		for i, c := range pl.Moved {
			if err := p.InsertCellAt(int(pl.From)+i, c); err != nil {
				return fmt.Errorf("core: redo unsplit cell %d on page %d: %w", i, rec.Page, err)
			}
		}
		if p.IsLeaf() {
			p.SetNext(pl.OldNext)
		} else {
			p.SetRightmost(pl.OldRightmost)
		}
		p.SetFlags(pl.PreFlags)
		return nil

	case wal.OpIdxChainFix:
		pl, err := decodeChainFix(rec.Payload)
		if err != nil {
			return err
		}
		if pl.NextField {
			p.SetNext(pl.New)
		} else {
			p.SetPrev(pl.New)
		}
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxSplitParent:
		pl, err := decodeSplitParent(rec.Payload)
		if err != nil {
			return err
		}
		if !pl.AtRightmost {
			// The cell now at Pos is the one whose child is patched once the
			// separator lands in front of it: check it first, so that an
			// error leaves the page as it was.
			cell, ok := p.Cell(int(pl.Pos))
			if !ok {
				return fmt.Errorf("core: redo split-parent at %d on page %d: no node cell to patch", pl.Pos, rec.Page)
			}
			if _, _, err := storage.DecodeNodeCell(cell); err != nil {
				return fmt.Errorf("core: redo split-parent at %d on page %d: %w", pl.Pos, rec.Page, err)
			}
		}
		if err := p.InsertCellAt(int(pl.Pos), pl.SepCell); err != nil {
			return fmt.Errorf("core: redo split-parent at %d on page %d: %w", pl.Pos, rec.Page, err)
		}
		if pl.AtRightmost {
			p.SetRightmost(pl.Right)
		} else if err := patchNodeChild(p, int(pl.Pos)+1, pl.Right); err != nil {
			return err
		}
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxUnsplitParent:
		pl, err := decodeSplitParent(rec.Payload)
		if err != nil {
			return err
		}
		_, left, err := storage.DecodeNodeCell(pl.SepCell)
		if err != nil {
			return err
		}
		if err := p.DeleteCellAt(int(pl.Pos)); err != nil {
			return fmt.Errorf("core: redo unsplit-parent at %d on page %d: %w", pl.Pos, rec.Page, err)
		}
		if pl.AtRightmost {
			p.SetRightmost(left)
		} else if err := patchNodeChild(p, int(pl.Pos), left); err != nil {
			return err
		}
		p.SetFlags(pl.PreFlags)
		return nil

	case wal.OpIdxDeleteChild:
		pl, err := decodeDeleteChild(rec.Payload)
		if err != nil {
			return err
		}
		if len(pl.Removed) > 0 {
			if err := p.DeleteCellAt(int(pl.Pos)); err != nil {
				return fmt.Errorf("core: redo delete-child at %d on page %d: %w", pl.Pos, rec.Page, err)
			}
		}
		p.SetRightmost(pl.NewRightmost)
		p.SetFlags(pl.PostFlags)
		return nil

	case wal.OpIdxUndeleteChild:
		pl, err := decodeDeleteChild(rec.Payload)
		if err != nil {
			return err
		}
		if len(pl.Removed) > 0 {
			if err := p.InsertCellAt(int(pl.Pos), pl.Removed); err != nil {
				return fmt.Errorf("core: redo undelete-child at %d on page %d: %w", pl.Pos, rec.Page, err)
			}
		}
		p.SetRightmost(pl.OldRightmost)
		p.SetFlags(pl.PreFlags)
		return nil

	case wal.OpIdxFreePage:
		if _, err := decodeFormat(rec.Payload); err != nil {
			return err
		}
		p.Format(rec.Page, storage.PageTypeFree, 0)
		return nil

	case wal.OpIdxSetBits:
		pl, err := decodeSetBits(rec.Payload)
		if err != nil {
			return err
		}
		p.SetFlags(pl.Flags)
		return nil

	default:
		return fmt.Errorf("core: not an index op: %s", rec.Op)
	}
}
