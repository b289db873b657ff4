package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ariesim/internal/storage"
)

// scripted is a FaultInjector that replays queued fates, for tests that
// need an exact failure schedule rather than a probabilistic one.
type scripted struct {
	mu       sync.Mutex
	readErrs []error
	writes   []storage.WriteDecision
}

func (s *scripted) ReadFault(storage.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.readErrs) == 0 {
		return nil
	}
	err := s.readErrs[0]
	s.readErrs = s.readErrs[1:]
	return err
}

func (s *scripted) WriteFault(storage.PageID, int) storage.WriteDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.writes) == 0 {
		return storage.WriteDecision{Fate: storage.WriteOK}
	}
	d := s.writes[0]
	s.writes = s.writes[1:]
	return d
}

func failWrites(n int) []storage.WriteDecision {
	out := make([]storage.WriteDecision, n)
	for i := range out {
		out[i] = storage.WriteDecision{Fate: storage.WriteFail}
	}
	return out
}

func TestFixRetriesTransientReadError(t *testing.T) {
	d, _, p, st := newEnv(4)
	content := make([]byte, 512)
	content[100] = 0xEE
	if err := d.Write(7, content); err != nil {
		t.Fatal(err)
	}
	d.SetInjector(&scripted{readErrs: []error{storage.ErrTransientIO, storage.ErrTransientIO}})
	f, err := p.Fix(7)
	if err != nil {
		t.Fatalf("fix did not retry transient read errors: %v", err)
	}
	if f.Page.Bytes()[100] != 0xEE {
		t.Fatal("retried read returned wrong content")
	}
	p.Unfix(f)
	if st.IORetries.Load() != 2 {
		t.Fatalf("IORetries = %d, want 2", st.IORetries.Load())
	}
}

func TestEvictRetriesTransientWriteError(t *testing.T) {
	d, l, p, st := newEnv(1)
	f, _ := p.Fix(5)
	lsn := update(t, p, l, f, 0xAB)
	p.Unfix(f)
	d.SetInjector(&scripted{writes: failWrites(2)})

	// Fixing another page evicts page 5; the steal's write fails twice
	// transiently and must be retried, not dropped.
	f2, err := p.Fix(6)
	if err != nil {
		t.Fatalf("evict did not survive transient write errors: %v", err)
	}
	p.Unfix(f2)
	if st.IORetries.Load() != 2 {
		t.Fatalf("IORetries = %d, want 2", st.IORetries.Load())
	}
	buf := make([]byte, 512)
	if err := d.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if storage.PageFromBytes(buf).LSN() != uint64(lsn) {
		t.Fatal("retried evict write did not reach disk")
	}
}

// TestFailedEvictKeepsFrameDirty exhausts the write retries and verifies
// the graceful-degradation contract: the victim frame stays resident,
// dirty, and in the DPT (nothing is lost), pin bookkeeping stays correct,
// and a later retry of the same eviction succeeds.
func TestFailedEvictKeepsFrameDirty(t *testing.T) {
	d, l, p, _ := newEnv(1)
	f, _ := p.Fix(5)
	lsn := update(t, p, l, f, 0xCD)
	p.Unfix(f)
	// One initial attempt + maxIORetries retries, all failing.
	d.SetInjector(&scripted{writes: failWrites(maxIORetries + 1)})

	if _, err := p.Fix(6); !errors.Is(err, storage.ErrTransientIO) {
		t.Fatalf("exhausted evict: got %v, want ErrTransientIO", err)
	}

	// The dirty frame must still be fully accounted for.
	if n := p.NumBuffered(); n != 1 {
		t.Fatalf("NumBuffered = %d after failed evict, want 1", n)
	}
	dpt := p.DPT()
	if len(dpt) != 1 || dpt[0].Page != 5 || dpt[0].RecLSN != lsn {
		t.Fatalf("DPT after failed evict = %+v, want page 5 recLSN %d", dpt, lsn)
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pin leak after failed evict: %v", pinned)
	}
	buf := make([]byte, 512)
	_ = d.Read(5, buf)
	if storage.PageFromBytes(buf).LSN() == uint64(lsn) {
		t.Fatal("failed write reached disk anyway")
	}

	// The fault schedule is drained; retrying the eviction now succeeds.
	f2, err := p.Fix(6)
	if err != nil {
		t.Fatalf("retry after failed evict: %v", err)
	}
	p.Unfix(f2)
	if err := d.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if storage.PageFromBytes(buf).LSN() != uint64(lsn) {
		t.Fatal("retried evict did not write page 5")
	}
	if len(p.DPT()) != 0 {
		t.Fatalf("DPT not cleared after successful evict: %+v", p.DPT())
	}
}

// A page the device cannot return intact — silently corrupted, so its
// checksum fails, or pinned to a permanent read error until it is
// rewritten — is counted corrupt and rebuilt by media recovery inside Fix.
func TestFixChecksumFailureTriggersMediaRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(d *storage.Disk)
	}{
		{"checksum", func(d *storage.Disk) {
			d.CorruptBits(9, 200, 0xFF) // silent corruption: checksum not restamped
		}},
		{"permanent", func(d *storage.Disk) {
			f := storage.NewFaults(storage.FaultConfig{Seed: 1})
			f.FailPagePermanently(9) // the recoverer's rewrite remaps it
			d.SetInjector(f)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _, p, st := newEnv(4)
			good := make([]byte, 512)
			good[100] = 0x42
			if err := d.Write(9, good); err != nil {
				t.Fatal(err)
			}
			tc.damage(d)

			recoveries := 0
			p.SetMediaRecoverer(func(id storage.PageID) error {
				if id != 9 {
					return fmt.Errorf("recoverer called for page %d", id)
				}
				recoveries++
				return d.Write(9, good) // "replay" the page to a clean state
			})

			f, err := p.Fix(9)
			if err != nil {
				t.Fatalf("fix did not self-heal: %v", err)
			}
			if f.Page.Bytes()[100] != 0x42 || f.Page.Bytes()[200] != 0 {
				t.Fatal("recovered page has wrong content")
			}
			p.Unfix(f)
			if recoveries != 1 {
				t.Fatalf("media recoverer ran %d times, want 1", recoveries)
			}
			if st.CorruptPages.Load() != 1 {
				t.Fatalf("CorruptPages = %d, want 1", st.CorruptPages.Load())
			}
		})
	}
}

func TestFixChecksumFailureWithoutRecovererSurfaces(t *testing.T) {
	d, _, p, _ := newEnv(4)
	good := make([]byte, 512)
	if err := d.Write(9, good); err != nil {
		t.Fatal(err)
	}
	d.CorruptBits(9, 64, 0x01)
	if _, err := p.Fix(9); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestFixFailedMediaRecoverySurfaces(t *testing.T) {
	d, _, p, _ := newEnv(4)
	good := make([]byte, 512)
	if err := d.Write(9, good); err != nil {
		t.Fatal(err)
	}
	d.CorruptBits(9, 64, 0x01)
	boom := errors.New("image copy also lost")
	p.SetMediaRecoverer(func(storage.PageID) error { return boom })
	if _, err := p.Fix(9); !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped recoverer error", err)
	}
}
