package wal

import (
	"encoding/binary"
	"fmt"

	"ariesim/internal/storage"
)

// TxState is a transaction's state as carried in checkpoint records and
// reconstructed by restart analysis.
type TxState uint8

const (
	// TxActive: in-flight; a loser if the log holds no commit record.
	TxActive TxState = iota + 1
	// TxCommitted: commit record logged, transaction not yet out of the
	// table (a fuzzy checkpoint can catch it there); restart drops it.
	TxCommitted
	// TxRollingBack: an abort record was logged; restart finishes the undo.
	TxRollingBack
)

func (s TxState) String() string {
	switch s {
	case TxActive:
		return "active"
	case TxCommitted:
		return "committed"
	case TxRollingBack:
		return "rolling-back"
	default:
		return fmt.Sprintf("txstate%d", uint8(s))
	}
}

// TxTableEntry is one row of the transaction table.
type TxTableEntry struct {
	TxID       TxID
	State      TxState
	LastLSN    LSN
	UndoNxtLSN LSN
}

// DPTEntry is one row of the dirty page table: the page and its recovery
// LSN (the earliest log record that might not be reflected on disk).
type DPTEntry struct {
	Page   storage.PageID
	RecLSN LSN
}

// CheckpointData is the payload of an end-checkpoint record: fuzzy copies
// of the transaction table and dirty page table.
type CheckpointData struct {
	Txs []TxTableEntry
	DPT []DPTEntry
}

// Encode serializes the checkpoint payload.
func (c *CheckpointData) Encode() []byte {
	b := make([]byte, 0, 8+len(c.Txs)*21+len(c.DPT)*12)
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		b = append(b, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		b = append(b, tmp[:8]...)
	}
	put32(uint32(len(c.Txs)))
	for _, t := range c.Txs {
		put32(uint32(t.TxID))
		b = append(b, uint8(t.State))
		put64(uint64(t.LastLSN))
		put64(uint64(t.UndoNxtLSN))
	}
	put32(uint32(len(c.DPT)))
	for _, d := range c.DPT {
		put32(uint32(d.Page))
		put64(uint64(d.RecLSN))
	}
	return b
}

// DecodeCheckpointData parses an end-checkpoint payload.
func DecodeCheckpointData(b []byte) (*CheckpointData, error) {
	c := &CheckpointData{}
	off := 0
	need := func(n int) error {
		if off+n > len(b) {
			return fmt.Errorf("wal: checkpoint payload truncated at %d (+%d of %d)", off, n, len(b))
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nTx := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	for i := 0; i < nTx; i++ {
		if err := need(21); err != nil {
			return nil, err
		}
		t := TxTableEntry{
			TxID:  TxID(binary.LittleEndian.Uint32(b[off:])),
			State: TxState(b[off+4]),
		}
		t.LastLSN = LSN(binary.LittleEndian.Uint64(b[off+5:]))
		t.UndoNxtLSN = LSN(binary.LittleEndian.Uint64(b[off+13:]))
		off += 21
		c.Txs = append(c.Txs, t)
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nDP := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	for i := 0; i < nDP; i++ {
		if err := need(12); err != nil {
			return nil, err
		}
		c.DPT = append(c.DPT, DPTEntry{
			Page:   storage.PageID(binary.LittleEndian.Uint32(b[off:])),
			RecLSN: LSN(binary.LittleEndian.Uint64(b[off+4:])),
		})
		off += 12
	}
	return c, nil
}
