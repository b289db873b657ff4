package storage

import (
	"errors"
	"math/rand"
	"sync"
)

// Fault injection. ARIES/IM's correctness claims rest on a failure model —
// crashes at arbitrary points, media loss, detectably-torn page writes —
// so the simulated disk can play the adversary: a FaultInjector decides
// the fate of every page I/O under a seeded deterministic schedule. The
// upper layers are expected to degrade gracefully: transient errors are
// retried by the buffer pool, and silent corruption (torn writes, bit
// flips) is caught by the page CRC on the next read and repaired through
// media recovery.

// Typed I/O errors. Callers classify failures with errors.Is.
var (
	// ErrTransientIO reports a device error that may succeed on retry.
	ErrTransientIO = errors.New("storage: transient I/O error")
	// ErrPermanentIO reports a device error pinned to a page; it persists
	// until the page is rewritten (the "sector" is remapped by a write,
	// e.g. the one media recovery performs).
	ErrPermanentIO = errors.New("storage: permanent I/O error")
	// ErrChecksum reports that a page's content does not match its stored
	// CRC: a torn write, a bit flip, or other silent media corruption.
	ErrChecksum = errors.New("storage: page checksum mismatch")
)

// WriteFate is the outcome a FaultInjector assigns to one page write.
type WriteFate uint8

const (
	// WriteOK stores the page intact.
	WriteOK WriteFate = iota
	// WriteFail stores nothing and fails the write with ErrTransientIO.
	WriteFail
	// WriteTorn stores a prefix of the new page and the suffix of the old
	// page (a power-cut mid-write), and reports success: silent corruption
	// that only the page CRC can surface later.
	WriteTorn
	// WriteBitFlip stores the page with one bit flipped and reports
	// success: silent corruption caught by the page CRC.
	WriteBitFlip
)

// WriteDecision is a fate plus its parameter.
type WriteDecision struct {
	Fate WriteFate
	// Offset parameterizes the fate: for WriteTorn it is the byte index
	// where the stored page switches from new to old bytes; for
	// WriteBitFlip it is the bit index to flip.
	Offset int
}

// FaultInjector decides the fate of each disk I/O. Implementations must be
// safe for concurrent use; the Disk consults them under no lock of its own.
type FaultInjector interface {
	// ReadFault is consulted before each page read; a non-nil error fails
	// the read (typically wrapping ErrTransientIO or ErrPermanentIO).
	ReadFault(id PageID) error
	// WriteFault is consulted before each page write and picks its fate.
	WriteFault(id PageID, pageSize int) WriteDecision
}

// FaultConfig parameterizes the seeded Faults injector. All probabilities
// are per-operation in [0,1].
type FaultConfig struct {
	// Seed makes the fault schedule deterministic.
	Seed int64
	// ReadErrorProb injects transient read errors.
	ReadErrorProb float64
	// WriteErrorProb injects clean transient write failures.
	WriteErrorProb float64
	// TornWriteProb injects torn page writes (silent corruption).
	TornWriteProb float64
	// BitFlipProb injects one-bit corruption on writes (silent).
	BitFlipProb float64
}

// maxConsecutive caps a run of injected faults (reads and writes counted
// separately); after the cap, the next operation is forced to succeed.
const maxConsecutive = 2

// Faults is a seeded, deterministic FaultInjector with bounded adversity:
// it never injects more than maxConsecutive faults in a row, so the buffer
// pool's capped retries are guaranteed to make progress.
type Faults struct {
	mu          sync.Mutex
	cfg         FaultConfig
	rng         *rand.Rand
	consecRead  int
	consecWrite int
	permanent   map[PageID]bool

	readFaults  uint64
	writeFaults uint64
	tornWrites  uint64
	bitFlips    uint64
}

// NewFaults creates an injector for cfg.
func NewFaults(cfg FaultConfig) *Faults {
	return &Faults{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		permanent: make(map[PageID]bool),
	}
}

// FailPagePermanently marks a page so every read of it fails with
// ErrPermanentIO until the page is rewritten (any write remaps it).
func (f *Faults) FailPagePermanently(id PageID) {
	f.mu.Lock()
	f.permanent[id] = true
	f.mu.Unlock()
}

// ReadFault implements FaultInjector.
func (f *Faults) ReadFault(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.permanent[id] {
		f.readFaults++
		return ErrPermanentIO
	}
	if f.consecRead >= maxConsecutive {
		f.consecRead = 0
		return nil
	}
	if f.rng.Float64() < f.cfg.ReadErrorProb {
		f.consecRead++
		f.readFaults++
		return ErrTransientIO
	}
	f.consecRead = 0
	return nil
}

// WriteFault implements FaultInjector. A write to a permanently failed
// page remaps it (subsequent reads succeed), mirroring sector remapping.
func (f *Faults) WriteFault(id PageID, pageSize int) WriteDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.permanent, id)
	if f.consecWrite >= maxConsecutive {
		f.consecWrite = 0
		return WriteDecision{Fate: WriteOK}
	}
	r := f.rng.Float64()
	switch {
	case r < f.cfg.WriteErrorProb:
		f.consecWrite++
		f.writeFaults++
		return WriteDecision{Fate: WriteFail}
	case r < f.cfg.WriteErrorProb+f.cfg.TornWriteProb:
		f.consecWrite++
		f.tornWrites++
		// Tear strictly inside the page so old and new actually mix.
		off := 8 + f.rng.Intn(pageSize-16)
		return WriteDecision{Fate: WriteTorn, Offset: off}
	case r < f.cfg.WriteErrorProb+f.cfg.TornWriteProb+f.cfg.BitFlipProb:
		f.consecWrite++
		f.bitFlips++
		return WriteDecision{Fate: WriteBitFlip, Offset: f.rng.Intn(pageSize * 8)}
	}
	f.consecWrite = 0
	return WriteDecision{Fate: WriteOK}
}

// FaultCounts summarizes what the injector has done so far.
type FaultCounts struct {
	ReadFaults  uint64
	WriteFaults uint64
	TornWrites  uint64
	BitFlips    uint64
}

// Counts returns the injected-fault totals.
func (f *Faults) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultCounts{
		ReadFaults:  f.readFaults,
		WriteFaults: f.writeFaults,
		TornWrites:  f.tornWrites,
		BitFlips:    f.bitFlips,
	}
}
