package buffer

import (
	"testing"

	"ariesim/internal/storage"
)

func TestPrefetchBringsPagesResident(t *testing.T) {
	d, _, p, st := newEnv(64)
	buf := make([]byte, 512)
	ids := []storage.PageID{3, 9, 27, 81}
	for _, id := range ids {
		pg := storage.NewPage(512)
		pg.Bytes()[100] = byte(id)
		copy(buf, pg.Bytes())
		if err := d.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}

	if n := p.Prefetch(ids); n != len(ids) {
		t.Fatalf("prefetched %d pages, want %d", n, len(ids))
	}
	for _, id := range ids {
		if !p.Contains(id) {
			t.Fatalf("page %d not resident after prefetch", id)
		}
	}
	if got := st.PagesPrefetched.Load(); got != uint64(len(ids)) {
		t.Fatalf("PagesPrefetched = %d, want %d", got, len(ids))
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("prefetch leaked pins on pages %v", pinned)
	}

	// A second prefetch of resident pages is a no-op.
	misses := st.PageMisses.Load()
	if n := p.Prefetch(ids); n != 0 {
		t.Fatalf("re-prefetch fetched %d pages, want 0", n)
	}
	if got := st.PageMisses.Load(); got != misses {
		t.Fatalf("re-prefetch paid %d extra disk reads", got-misses)
	}
}
