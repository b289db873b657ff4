package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Disk simulates the stable storage a database rides on. It is the half of
// the system that survives a crash: the buffer pool, lock table, and
// transaction table are volatile, while Disk pages and the forced log
// prefix persist.
//
// Semantics modeled on real disks:
//   - every stored page carries a CRC32-C stamped at write time and verified
//     at read time, so torn writes and bit flips are detected (ErrChecksum)
//     rather than served as valid data,
//   - reading a never-written page returns zeroes (a freshly extended file),
//   - a page can be deliberately corrupted to exercise media recovery,
//   - an optional FaultInjector can fail reads/writes (transient or
//     permanent), tear a write (prefix of new + suffix of old bytes), or
//     flip a bit — all under a seeded deterministic schedule.
type Disk struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
	inj      FaultInjector

	reads  atomic.Uint64
	writes atomic.Uint64

	ioDelay atomic.Int64 // simulated per-page device latency, ns
}

// NewDisk creates an empty disk with the given page size.
func NewDisk(pageSize int) *Disk {
	if pageSize < headerSize+64 || pageSize > MaxPageSize {
		panic(fmt.Sprintf("storage: invalid disk page size %d", pageSize))
	}
	return &Disk{pageSize: pageSize, pages: make(map[PageID][]byte)}
}

// PageSize returns the disk's page size.
func (d *Disk) PageSize() int { return d.pageSize }

// SetIODelay charges a simulated device latency on every page read and
// write (default 0, so tier-1 tests stay instantaneous). The sleep happens
// outside the disk's internal lock: concurrent I/Os to different pages
// overlap, exactly like independent requests on a real device queue —
// which is what makes serialized-I/O designs measurably slow.
func (d *Disk) SetIODelay(delay time.Duration) { d.ioDelay.Store(int64(delay)) }

func (d *Disk) sleepIO() {
	if ns := d.ioDelay.Load(); ns > 0 {
		SpinWait(time.Duration(ns))
	}
}

// SetInjector installs (or, with nil, removes) a fault injector. Faults
// apply only to page reads and writes, not to snapshot access.
func (d *Disk) SetInjector(inj FaultInjector) {
	d.mu.Lock()
	d.inj = inj
	d.mu.Unlock()
}

func (d *Disk) injector() FaultInjector {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inj
}

// Injector returns the installed fault injector (nil when none). The
// engine uses it to carry the fault schedule onto the successor disk when
// a crash orphans the current one.
func (d *Disk) Injector() FaultInjector { return d.injector() }

// Read copies page id into buf (which must be pageSize long). A page that
// was never written reads as zeroes. Reads verify the page checksum and
// fail with ErrChecksum on a mismatch; an installed injector may also fail
// the read with ErrTransientIO or ErrPermanentIO.
func (d *Disk) Read(id PageID, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), d.pageSize)
	}
	d.reads.Add(1)
	d.sleepIO()
	if inj := d.injector(); inj != nil {
		if err := inj.ReadFault(id); err != nil {
			return fmt.Errorf("%w (page %d)", err, id)
		}
	}
	d.mu.RLock()
	src, ok := d.pages[id]
	if ok {
		copy(buf, src)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	d.mu.RUnlock()
	if ok && !PageFromBytes(buf).VerifyChecksum() {
		return fmt.Errorf("%w (page %d)", ErrChecksum, id)
	}
	return nil
}

// Write atomically replaces page id with data, stamping the page checksum
// on the stored copy. An installed injector may fail the write cleanly
// (ErrTransientIO; nothing stored), tear it (a mix of new and old bytes is
// stored, with the new checksum — success is reported but the next read
// fails its CRC), or flip a bit (likewise silent).
func (d *Disk) Write(id PageID, data []byte) error {
	if len(data) != d.pageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), d.pageSize)
	}
	d.writes.Add(1)
	d.sleepIO()
	cp := make([]byte, len(data))
	copy(cp, data)
	PageFromBytes(cp).UpdateChecksum()
	if inj := d.injector(); inj != nil {
		dec := inj.WriteFault(id, d.pageSize)
		switch dec.Fate {
		case WriteFail:
			return fmt.Errorf("%w (page %d)", ErrTransientIO, id)
		case WriteTorn:
			d.mu.Lock()
			if old, ok := d.pages[id]; ok && dec.Offset > 0 && dec.Offset < d.pageSize {
				copy(cp[dec.Offset:], old[dec.Offset:])
			}
			d.pages[id] = cp
			d.mu.Unlock()
			return nil
		case WriteBitFlip:
			if off := dec.Offset; off >= 0 && off < d.pageSize*8 {
				cp[off/8] ^= 1 << (off % 8)
			}
			d.mu.Lock()
			d.pages[id] = cp
			d.mu.Unlock()
			return nil
		}
	}
	d.mu.Lock()
	d.pages[id] = cp
	d.mu.Unlock()
	return nil
}

// Exists reports whether the page was ever written.
func (d *Disk) Exists(id PageID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.pages[id]
	return ok
}

// Corrupt destroys a page, simulating a media failure on it. Subsequent
// reads return zeroes until media recovery rewrites the page.
func (d *Disk) Corrupt(id PageID) {
	d.mu.Lock()
	delete(d.pages, id)
	d.mu.Unlock()
}

// CorruptBits XORs mask into a stored byte of page id without restamping
// the checksum, planting silent corruption that the next read detects.
// It is a no-op for pages that were never written.
func (d *Disk) CorruptBits(id PageID, off int, mask byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b, ok := d.pages[id]; ok && off >= 0 && off < len(b) {
		b[off] ^= mask
	}
}

// Snapshot deep-copies every written page: the mechanism behind fuzzy
// image copies (archive dumps) for media recovery.
func (d *Disk) Snapshot() map[PageID][]byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[PageID][]byte, len(d.pages))
	for id, b := range d.pages {
		cp := make([]byte, len(b))
		copy(cp, b)
		out[id] = cp
	}
	return out
}

// Clone deep-copies the disk's pages (not the injector or counters). Used
// to fork an engine's stable state for crash-point sweeps.
func (d *Disk) Clone() *Disk {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := NewDisk(d.pageSize)
	for id, b := range d.pages {
		cp := make([]byte, len(b))
		copy(cp, b)
		out.pages[id] = cp
	}
	out.ioDelay.Store(d.ioDelay.Load()) // the hardware stays slow across a crash
	return out
}

// Restore writes back a single page from a snapshot (media recovery step 1;
// step 2 is rolling the page forward from the log). The snapshot bytes are
// stored verbatim — they already carry the checksum stamped when they were
// first written, so a corrupt snapshot page stays detectable. The restore
// bypasses the fault injector: it models rewriting a remapped sector.
func (d *Disk) Restore(id PageID, snapshot map[PageID][]byte) {
	if b, ok := snapshot[id]; ok {
		cp := make([]byte, len(b))
		copy(cp, b)
		d.mu.Lock()
		d.pages[id] = cp
		d.mu.Unlock()
	} else {
		d.Corrupt(id) // page did not exist at dump time
	}
}

// NumPages returns the count of pages ever written.
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// PageIDs lists every written page (verification sweeps).
func (d *Disk) PageIDs() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]PageID, 0, len(d.pages))
	for id := range d.pages {
		ids = append(ids, id)
	}
	return ids
}

// ReadCount reports total page reads (synchronous I/O accounting).
func (d *Disk) ReadCount() uint64 { return d.reads.Load() }

// WriteCount reports total page writes.
func (d *Disk) WriteCount() uint64 { return d.writes.Load() }
