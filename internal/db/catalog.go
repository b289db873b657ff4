// The catalog is a record heap, data.Table catalogID, on the first page a
// fresh disk allocates, with one row per table and one per index. Each DDL
// inserts its rows in its own transaction, so a table or index exists
// exactly when its DDL committed, and whoever replays the log learns it.
package db

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ariesim/internal/storage"
)

// catalogID is the catalog heap's table ID; user tables number from 1.
const catalogID uint64 = 0

// The kinds of catalog row: a table names its heap's first page, an index
// its root. Each row is written once, since neither page ever moves.
const (
	rowTable byte = 1 + iota
	rowPrimary
	rowSecondary
)

// catalogRow is one catalog record: kind u8 | table u64 | index u32 (0 on
// a table row) | page u32 | [key] | name. Only a secondary row carries
// key, its KeySpec: hasSep u8 | sep u8 | prefix u32 | suffix u32.
type catalogRow struct {
	kind  byte
	table uint64
	index uint32
	page  storage.PageID
	key   KeySpec
	name  string
}

const catalogRowHeader, keySpecSize = 1 + 8 + 4 + 4, 1 + 1 + 4 + 4

func (r catalogRow) encode() []byte {
	b := binary.LittleEndian.AppendUint64([]byte{r.kind}, r.table)
	b = binary.LittleEndian.AppendUint32(b, r.index)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
	if r.kind == rowSecondary {
		var hasSep byte
		if r.key.HasSep {
			hasSep = 1
		}
		b = binary.LittleEndian.AppendUint32(append(b, hasSep, r.key.Sep), uint32(r.key.Prefix))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.key.Suffix))
	}
	return append(b, r.name...)
}

func decodeCatalogRow(b []byte) (catalogRow, error) {
	corrupt := func() (catalogRow, error) { return catalogRow{}, fmt.Errorf("db: corrupt catalog row %x", b) }
	if len(b) < catalogRowHeader || b[0] < rowTable || b[0] > rowSecondary {
		return corrupt()
	}
	r := catalogRow{kind: b[0], table: binary.LittleEndian.Uint64(b[1:]),
		index: binary.LittleEndian.Uint32(b[9:]), page: storage.PageID(binary.LittleEndian.Uint32(b[13:]))}
	rest := b[catalogRowHeader:]
	if r.kind == rowSecondary {
		if len(rest) < keySpecSize || rest[0] > 1 {
			return corrupt()
		}
		r.key = KeySpec{HasSep: rest[0] == 1, Sep: rest[1],
			Prefix: int(binary.LittleEndian.Uint32(rest[2:])), Suffix: int(binary.LittleEndian.Uint32(rest[6:]))}
		if !r.key.valid() {
			return corrupt()
		}
		rest = rest[keySpecSize:]
	}
	r.name = string(rest)
	return r, nil
}

// openCatalogLocked reads the catalog heap, registers every index a row
// names and builds the table handles. It reads through the pool with
// latches only, so during restart every page it fixes is recovered on
// demand. Restart calls it twice: before the first loser undo step, when a
// loser DDL's rows are still there and its undo may need its index, and
// after undo, to keep handles only for the rows that survived. The next
// IDs are one past the highest the rows name. Caller holds d.mu.
func (d *DB) openCatalogLocked() error {
	cat := d.dm.OpenTable(catalogID, storage.FirstAllocatablePageID)
	recs, err := cat.ScanAll()
	if err != nil {
		return fmt.Errorf("db: read catalog: %w", err)
	}
	rows := make([]catalogRow, 0, len(recs))
	for _, rec := range recs {
		r, err := decodeCatalogRow(rec)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	// ID order: each table's row, then its indexes' in creation order.
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].table < rows[j].table || rows[i].table == rows[j].table && rows[i].index < rows[j].index
	})
	d.tables = make(map[string]*Table)
	d.catalog, d.nextTableID, d.nextIndexID = nil, 1, 1
	if len(rows) > 0 {
		d.catalog = cat
	}
	var t *Table
	for _, r := range rows {
		if r.kind == rowTable {
			t = &Table{db: d, name: r.name, id: r.table, data: d.dm.OpenTable(r.table, r.page), vs: d.vs}
			d.tables[r.name] = t
			d.nextTableID = max(d.nextTableID, r.table+1)
			continue
		}
		if t == nil || t.id != r.table {
			return fmt.Errorf("db: catalog index %d names table %d, which has no row", r.index, r.table)
		}
		d.nextIndexID = max(d.nextIndexID, r.index+1)
		ix := d.im.Lookup(r.index) // the one restart's undo uses, if any
		if ix == nil {
			ix = d.im.OpenIndex(d.indexConfig(r.index, r.kind == rowPrimary), r.page)
		}
		if r.kind == rowPrimary {
			t.primary = ix
			continue
		}
		t.secondaries = append(t.secondaries, &secondary{name: r.name, ix: ix, key: r.key})
	}
	return nil
}
