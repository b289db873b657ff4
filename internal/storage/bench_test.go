package storage

import (
	"fmt"
	"testing"
)

// Micro-benchmarks of the byte-level substrate: these bound the cost of
// every page operation the engine performs.

func benchLeaf(b *testing.B, nKeys int) *Page {
	b.Helper()
	p := NewPage(DefaultPageSize)
	p.Format(1, PageTypeIndex, 0)
	for i := 0; i < nKeys; i++ {
		k := Key{Val: []byte(fmt.Sprintf("key%08d", i*2)), RID: RID{Page: PageID(i), Slot: 1}}
		if err := p.InsertCellAt(i, EncodeLeafCell(k)); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

func BenchmarkPageInsertDeleteCell(b *testing.B) {
	p := benchLeaf(b, 100)
	cell := EncodeLeafCell(Key{Val: []byte("key00000101"), RID: RID{Page: 9, Slot: 9}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.InsertCellAt(50, cell); err != nil {
			b.Fatal(err)
		}
		if err := p.DeleteCellAt(50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeafCellCodec(b *testing.B) {
	k := Key{Val: []byte("key00001234"), RID: RID{Page: 77, Slot: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := EncodeLeafCell(k)
		if _, err := DecodeLeafCell(cell); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchLeaf(b, 100)
		for j := 0; j < 50; j++ {
			if err := p.DeleteCellAt(j); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		p.compact()
	}
}

func BenchmarkDiskReadWrite(b *testing.B) {
	d := NewDisk(DefaultPageSize)
	buf := make([]byte, DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(PageID(i%64+2), buf); err != nil {
			b.Fatal(err)
		}
		if err := d.Read(PageID(i%64+2), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFSMFindFree(b *testing.B) {
	p := NewPage(DefaultPageSize)
	FormatFSM(p)
	// Half-full bitmap: realistic search depth.
	for i := 0; i < FSMCapacity(DefaultPageSize)/2; i++ {
		_ = FSMSet(p, i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FSMFindFree(p); err != nil {
			b.Fatal(err)
		}
	}
}
