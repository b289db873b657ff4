package data

import (
	"bytes"
	"testing"

	"ariesim/internal/storage"
)

func TestInsertPayloadRoundTrip(t *testing.T) {
	p := insertPayload{Slot: 7, Record: []byte("payload-bytes")}
	got, err := decodeInsertPayload(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Slot != 7 || !bytes.Equal(got.Record, p.Record) {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeInsertPayload([]byte{1}); err == nil {
		t.Fatal("short payload decoded")
	}
	// Empty record is legal.
	e, err := decodeInsertPayload(insertPayload{Slot: 3}.encode())
	if err != nil || e.Slot != 3 || len(e.Record) != 0 {
		t.Fatalf("empty record round trip: %+v, %v", e, err)
	}
}

func TestPurgePayloadRoundTrip(t *testing.T) {
	got, err := decodeSlotPayload(slotPayload{Slot: 42}.encode())
	if err != nil || got.Slot != 42 {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for _, bad := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, err := decodeSlotPayload(bad); err == nil {
			t.Fatalf("bad slot payload %v decoded", bad)
		}
	}
}

func TestFormatPayloadRoundTrip(t *testing.T) {
	p := formatPayload{Prev: 11, Next: 22}
	got, err := decodeFormatPayload(p.encode())
	if err != nil || got != p {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, err := decodeFormatPayload(make([]byte, 7)); err == nil {
		t.Fatal("short format payload decoded")
	}
}

func TestChainFixPayloadRoundTrip(t *testing.T) {
	for _, next := range []bool{true, false} {
		p := chainFixPayload{Next: next, Old: 5, New: 9}
		got, err := decodeChainFixPayload(p.encode())
		if err != nil || got != p {
			t.Fatalf("round trip: %+v, %v", got, err)
		}
	}
	if _, err := decodeChainFixPayload(make([]byte, 5)); err == nil {
		t.Fatal("short chain-fix payload decoded")
	}
}

func TestGhostCellCodec(t *testing.T) {
	cell := wrapRecord([]byte("rec"))
	ghost, rec := unwrapCell(cell)
	if ghost || string(rec) != "rec" {
		t.Fatalf("fresh cell: ghost=%v rec=%q", ghost, rec)
	}
	cell[0] |= cellGhost
	ghost, rec = unwrapCell(cell)
	if !ghost || string(rec) != "rec" {
		t.Fatalf("ghosted cell: ghost=%v rec=%q", ghost, rec)
	}
	if g, r := unwrapCell(nil); g || r != nil {
		t.Fatal("nil cell mishandled")
	}
}

func BenchmarkDataInsertDelete(b *testing.B) {
	e := struct {
		disk *storage.Disk
	}{storage.NewDisk(4096)}
	_ = e
	env := benchEnv(b)
	tbl := env.tbl
	tx := env.mgr.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid, err := tbl.Insert(tx, []byte("benchmark-record-payload-32-bytes"))
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Delete(tx, rid, true); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx = env.mgr.Begin()
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}
