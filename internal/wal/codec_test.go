package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"ariesim/internal/storage"
)

// codecCases is one record of every type plus the shapes the header's
// optional fields distinguish: a CLR with an UndoNxtLSN, a dummy CLR whose
// UndoNxtLSN is 0, an update with only a page or only an op, field maxima
// and a 64 KiB payload.
func codecCases() []*Record {
	return []*Record{
		{Type: RecUpdate, TxID: 3, PrevLSN: 120, Page: 9, Op: OpDataUpdate, Payload: []byte("row")},
		{Type: RecUpdate, TxID: 3, Page: 9, Op: OpIdxSetBits, RedoOnly: true, Payload: []byte{1}},
		{Type: RecCLR, TxID: 4, PrevLSN: 900, UndoNxtLSN: 450, Page: 12, Op: OpIdxDeleteKey, RedoOnly: true, Payload: []byte("key")},
		{Type: RecDummyCLR, TxID: 4, PrevLSN: 1000, UndoNxtLSN: 777},
		{Type: RecDummyCLR, TxID: 4, PrevLSN: 1000},
		{Type: RecCommit, TxID: 5, PrevLSN: 300},
		{Type: RecAbort, TxID: 6, PrevLSN: 1 << 35},
		{Type: RecEnd, TxID: 6, PrevLSN: 1<<35 + 40},
		{Type: RecCommit, TxID: 7, PrevLSN: 64},
		{Type: RecBeginCkpt},
		{Type: RecEndCkpt, PrevLSN: 5000, Payload: (&CheckpointData{}).Encode()},
		{Type: RecUpdate, TxID: 8, Page: 0, Op: OpFSMAlloc, Payload: []byte{2}},
		{Type: RecUpdate, TxID: 8, Page: 33, Op: OpNone},
		{Type: RecCLR, TxID: math.MaxUint32, PrevLSN: math.MaxUint64, UndoNxtLSN: math.MaxUint64,
			Page: math.MaxUint32, Op: math.MaxUint16, RedoOnly: true},
		{Type: RecUpdate, TxID: 9, PrevLSN: 70000, Page: 2, Op: OpIdxFormat, Payload: bytes.Repeat([]byte{0xa5}, 64<<10)},
	}
}

// TestRecordCodecTable: the cases hold every record type, every case's
// EncodedSize is its encoding's length, every field survives the round
// trip, and the decoded record re-encodes to the same bytes.
func TestRecordCodecTable(t *testing.T) {
	seen := map[RecType]bool{}
	for _, c := range codecCases() {
		seen[c.Type] = true
	}
	for typ := RecUpdate; typ <= RecEndCkpt; typ++ {
		if !seen[typ] {
			t.Errorf("no codec case of type %s", typ)
		}
	}
	for i, want := range codecCases() {
		enc := want.Encode()
		if len(enc) != want.EncodedSize() {
			t.Fatalf("case %d (%s): EncodedSize %d, Encode wrote %d", i, want, want.EncodedSize(), len(enc))
		}
		got, n, err := DecodeRecord(append(enc, 0xff, 0xee)) // trailing bytes are the next record's
		if err != nil || n != len(enc) {
			t.Fatalf("case %d (%s): decode consumed %d of %d: %v", i, want, n, len(enc), err)
		}
		if got.Type != want.Type || got.TxID != want.TxID || got.PrevLSN != want.PrevLSN ||
			got.UndoNxtLSN != want.UndoNxtLSN || got.Page != want.Page || got.Op != want.Op ||
			got.RedoOnly != want.RedoOnly || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("case %d: decoded %v, want %v", i, got, want)
		}
		if again := got.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("case %d (%s): re-encoding differs", i, want)
		}
	}
}

// sealRecord frames body as a record: the length and CRC prefix a body
// needs to reach the header parser.
func sealRecord(body []byte) []byte {
	b := make([]byte, recPrefixSize+len(body))
	copy(b[recPrefixSize:], body)
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[8:], recCRCTable))
	return b
}

// TestDecodeRejectsNonCanonicalBodies: a body whose CRC matches but that no
// Encode writes is an error (not ErrBadRecordCRC, and not a panic), so a
// decoded record always re-encodes to the bytes it came from.
func TestDecodeRejectsNonCanonicalBodies(t *testing.T) {
	commit := byte(RecCommit)
	for name, body := range map[string][]byte{
		"type 0":                  {0, 1, 1},
		"type past RecEndCkpt":    {byte(RecEndCkpt) + 1, 1, 1},
		"unused flag bit":         {commit | flagUnused, 1, 1},
		"non-minimal TxID":        {commit, 0x81, 0x00, 1},
		"TxID past 32 bits":       {commit, 0x80, 0x80, 0x80, 0x80, 0x10, 1},
		"PrevLSN overruns body":   {commit, 1, 0x80},
		"PrevLSN past 64 bits":    {commit, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"UndoNxtLSN flag, 0":      {byte(RecCLR) | flagUndoNxt, 1, 1, 0},
		"UndoNxtLSN missing":      {byte(RecCLR) | flagUndoNxt, 1, 1},
		"page+op flag, both 0":    {byte(RecUpdate) | flagPageOp, 1, 1, 0, 0},
		"op missing":              {byte(RecUpdate) | flagPageOp, 1, 1, 5},
		"op past 16 bits":         {byte(RecUpdate) | flagPageOp, 1, 1, 5, 0x80, 0x80, 0x04},
		"page past 32 bits":       {byte(RecUpdate) | flagPageOp, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1},
		"PrevLSN missing (short)": {commit, 1},
	} {
		_, _, err := DecodeRecord(sealRecord(body))
		if err == nil || errors.Is(err, ErrBadRecordCRC) {
			t.Errorf("%s: DecodeRecord = %v, want a malformed-body error", name, err)
		}
	}
	if _, _, err := DecodeRecord(sealRecord([]byte{commit, 1, 1})); err != nil {
		t.Fatalf("the smallest commit record does not decode: %v", err)
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, on raw bytes or on a body
// sealed with a matching length and CRC, and whatever decodes re-encodes
// to exactly the bytes it consumed.
//
//	go test -run '^$' -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/wal
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range codecCases() {
		f.Add(r.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= recPrefixSize {
			inputs = append(inputs, sealRecord(b[recPrefixSize:]))
		}
		for _, in := range inputs {
			r, n, err := DecodeRecord(in)
			if err != nil {
				continue
			}
			if enc := r.Encode(); !bytes.Equal(enc, in[:n]) || r.EncodedSize() != n {
				t.Fatalf("decoded %v from %x, re-encoded %x", r, in[:n], enc)
			}
		}
	})
}

// TestEncodedSizeCountsOnlyPresentFields pins the sizes a committed
// transaction pays: the prefix, the flags byte, minimal varints, and an
// optional field only when it is non-zero.
func TestEncodedSizeCountsOnlyPresentFields(t *testing.T) {
	const base = recPrefixSize + 1
	for _, c := range []struct {
		r    *Record
		size int
	}{
		{&Record{Type: RecBeginCkpt}, recHeaderSize},
		{&Record{Type: RecCommit, TxID: 5, PrevLSN: 300}, base + 1 + 2},
		{&Record{Type: RecCommit, TxID: 200, PrevLSN: 1 << 20}, base + 2 + 3},
		{&Record{Type: RecDummyCLR, TxID: 4, PrevLSN: 1000}, base + 1 + 2},
		{&Record{Type: RecDummyCLR, TxID: 4, PrevLSN: 1000, UndoNxtLSN: 777}, base + 1 + 2 + 2},
		{&Record{Type: RecUpdate, TxID: 3, Page: 9, Op: OpDataUpdate, Payload: []byte("row")}, base + 1 + 1 + 1 + 1 + 3},
		{&Record{Type: RecUpdate, TxID: 3, Page: storage.PageID(300)}, base + 1 + 1 + 2 + 1},
	} {
		if got := c.r.EncodedSize(); got != c.size {
			t.Errorf("%s: %d bytes, want %d", c.r, got, c.size)
		}
	}
}
