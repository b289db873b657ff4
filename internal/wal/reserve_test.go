package wal

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/trace"
)

// Property and regression tests for the lock-free reservation pipeline.
// Run under -race these exercise the claim/publish/watermark protocol the
// way the mutex log never could: many appenders in flight at once, holes
// opening and closing at the frontier, forces and crashes racing the fill.

// checkDense asserts recs is a dense byte-accurate LSN sequence: each
// record's LSN is its predecessor's LSN plus the predecessor's encoded
// size, with the first anchored at firstLSN (0 = don't check).
func checkDense(t *testing.T, recs []*Record, firstLSN LSN) {
	t.Helper()
	if len(recs) == 0 {
		return
	}
	if firstLSN != 0 && recs[0].LSN != firstLSN {
		t.Fatalf("first LSN %d, want %d", recs[0].LSN, firstLSN)
	}
	for i := 1; i < len(recs); i++ {
		want := recs[i-1].LSN + LSN(recs[i-1].EncodedSize())
		if recs[i].LSN != want {
			t.Fatalf("hole at index %d: LSN %d, want %d (prev %d + %d bytes)",
				i, recs[i].LSN, want, recs[i-1].LSN, recs[i-1].EncodedSize())
		}
	}
}

// TestConcurrentReservationsDense: N concurrent appenders with mixed
// payload sizes produce unique, dense, byte-accurate LSN ranges — the
// packed-claim invariant that ticket order and byte order can never disagree.
func TestConcurrentReservationsDense(t *testing.T) {
	const workers, perWorker = 8, 400
	st := &trace.Stats{}
	l := NewLog(st)
	var wg sync.WaitGroup
	lsns := make([][]LSN, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, w%7+1) // mixed sizes
			for i := 0; i < perWorker; i++ {
				lsn := l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert, Payload: payload})
				lsns[w] = append(lsns[w], lsn)
			}
		}(w)
	}
	wg.Wait()

	if got := l.NumRecords(); got != workers*perWorker {
		t.Fatalf("NumRecords = %d, want %d", got, workers*perWorker)
	}
	if got := st.AppendReservations.Load(); got != workers*perWorker {
		t.Fatalf("AppendReservations = %d, want %d", got, workers*perWorker)
	}
	recs := l.SnapshotFrom(NilLSN + 1)
	checkDense(t, recs, NilLSN+1)
	// Every worker's LSNs strictly increasing and present exactly once.
	seen := make(map[LSN]bool, workers*perWorker)
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
	for w := range lsns {
		for i, lsn := range lsns[w] {
			if !seen[lsn] {
				t.Fatalf("worker %d append %d: LSN %d missing from log", w, i, lsn)
			}
			if i > 0 && lsn <= lsns[w][i-1] {
				t.Fatalf("worker %d: LSNs not increasing", w)
			}
		}
	}
	if st.LogBytes.Load() != l.Bytes() {
		t.Fatalf("LogBytes %d != Bytes %d after quiesce", st.LogBytes.Load(), l.Bytes())
	}
}

// TestSnapshotStableNeverExposesHole: while appenders race and forcers
// harden arbitrary appended LSNs, every SnapshotStable must be a dense
// prefix ending exactly at the reported stable mark — a reservation still
// filling below the mark can never leak into the snapshot.
func TestSnapshotStableNeverExposesHole(t *testing.T) {
	st := &trace.Stats{}
	l := NewLog(st)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lsn := l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert, Payload: []byte("hole?")})
				if i%8 == w {
					l.Force(lsn)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		recs, stable, _ := l.SnapshotStable(NilLSN + 1)
		if stable == NilLSN {
			continue
		}
		if len(recs) == 0 {
			t.Fatal("stable mark set but snapshot empty")
		}
		checkDense(t, recs, NilLSN+1)
		if last := recs[len(recs)-1]; last.LSN != stable {
			t.Fatalf("snapshot ends at %d, stable mark %d", last.LSN, stable)
		}
	}
	close(stop)
	wg.Wait()
}

// TestArchiveUnderConcurrentAppends: the archive reads the same stable
// prefix, so an archive taken under full append concurrency must restore
// to a dense log whose stable mark equals its last record.
func TestArchiveUnderConcurrentAppends(t *testing.T) {
	l := NewLog(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Bounded: every archive round is O(log length), so unbounded
			// appenders on a starved box outrun the rounds.
			for i := 0; i < 10000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lsn := l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert, Payload: []byte("arch")})
				if i%16 == 0 {
					l.Force(lsn)
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		if _, err := l.Archive(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadArchive(&buf)
		if err != nil {
			t.Fatal(err)
		}
		recs := got.SnapshotFrom(NilLSN + 1)
		checkDense(t, recs, NilLSN+1)
		if len(recs) > 0 && got.StableLSN() != recs[len(recs)-1].LSN {
			t.Fatalf("restored stable %d != last record %d", got.StableLSN(), recs[len(recs)-1].LSN)
		}
		if err := got.CodecRoundTrip(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrashAtEveryBoundaryMatchesPrefix: a concurrently-built log, forced
// and then crash-truncated at every record boundary, must be byte-identical
// to the corresponding prefix of the full log — the reservation pipeline
// may not perturb crash truncation at any point.
func TestCrashAtEveryBoundaryMatchesPrefix(t *testing.T) {
	l := NewLog(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert,
					Payload: []byte(fmt.Sprintf("w%d-%d", w, i))})
			}
		}(w)
	}
	wg.Wait()
	l.ForceAll()
	full := l.SnapshotFrom(NilLSN + 1)
	checkDense(t, full, NilLSN+1)
	for i := range full {
		L := full[i].LSN
		fork := l.Clone(nil)
		fork.TruncateTo(L)
		got := fork.SnapshotFrom(NilLSN + 1)
		if len(got) != i+1 {
			t.Fatalf("boundary %d: %d records survive, want %d", L, len(got), i+1)
		}
		for j := range got {
			if !bytes.Equal(got[j].Encode(), full[j].Encode()) {
				t.Fatalf("boundary %d: record %d differs from prefix", L, j)
			}
		}
		if fork.StableLSN() != L || fork.MaxLSN() != L {
			t.Fatalf("boundary %d: stable %d max %d", L, fork.StableLSN(), fork.MaxLSN())
		}
	}
}

// TestTruncateToAtomicUnderConcurrentForce is the regression test for the
// TruncateTo window: rewinding the stable mark and crashing used to be two
// critical sections, so a force sneaking between them re-advanced the mark
// and the crash kept records the truncation was supposed to drop. Merged
// into one critical section, TruncateTo(L) always leaves MaxLSN <= L.
func TestTruncateToAtomicUnderConcurrentForce(t *testing.T) {
	for round := 0; round < 60; round++ {
		l := NewLog(nil)
		var lsns []LSN
		for i := 0; i < 6; i++ {
			lsns = append(lsns, l.Append(&Record{Type: RecUpdate, TxID: 1, Op: OpDataInsert, Payload: []byte("t")}))
		}
		l.ForceAll()
		last := lsns[len(lsns)-1]
		stop := make(chan struct{})
		var started sync.WaitGroup
		var wg sync.WaitGroup
		// Several forcers spin hot on the log mutex so that at the moment
		// TruncateTo runs, at least one is actively contending — the old
		// two-critical-section window let such a force re-advance the
		// rewound stable mark between the rewind and the crash.
		for f := 0; f < 4; f++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				first := true
				for {
					select {
					case <-stop:
						if first {
							started.Done()
						}
						return
					default:
					}
					l.Force(last)
					if first {
						first = false
						started.Done()
					}
				}
			}()
		}
		started.Wait() // every forcer is live and contending
		L := lsns[0]
		l.TruncateTo(L)
		got := l.MaxLSN()
		close(stop)
		wg.Wait()
		if got > L {
			t.Fatalf("round %d: TruncateTo(%d) left MaxLSN %d — a concurrent force re-advanced the rewound mark", round, L, got)
		}
	}
}

// TestForceSurfacesCrash: a crash landing during the flush of a just
// appended commit record must not hand back the dead record as hardened:
// Force returns false.
func TestForceSurfacesCrash(t *testing.T) {
	l := NewLog(nil)
	seed := l.Append(&Record{Type: RecUpdate, TxID: 1, Op: OpDataInsert, Payload: []byte("s")})
	l.Force(seed)
	l.SetForceDelay(20 * time.Millisecond)

	type result struct {
		lsn LSN
		ok  bool
	}
	resCh := make(chan result, 1)
	go func() {
		lsn := l.Append(&Record{Type: RecCommit, TxID: 1})
		resCh <- result{lsn, l.Force(lsn)}
	}()
	awaitFlushing(t, l, seed+1) // the commit record's flush is in flight
	l.Crash()
	if res := <-resCh; res.ok {
		t.Fatalf("Force(%d) reported the crashed record stable", res.lsn)
	}
	if got := l.StableLSN(); got != seed {
		t.Fatalf("stable %d after crash, want %d", got, seed)
	}
}

// TestAppendThenForceSucceedsBothModes: Force reports a clean success as
// true, with an instantaneous and a costed device.
func TestAppendThenForceSucceedsBothModes(t *testing.T) {
	for _, delay := range []time.Duration{0, 100 * time.Microsecond} {
		l := NewLog(&trace.Stats{})
		l.SetForceDelay(delay)
		lsn := l.Append(&Record{Type: RecCommit, TxID: 1})
		if !l.Force(lsn) {
			t.Fatalf("delay %v: Force(%d) failed", delay, lsn)
		}
		if l.StableLSN() != lsn {
			t.Fatalf("delay %v: stable %d, want %d", delay, l.StableLSN(), lsn)
		}
	}
}

// TestReadWaitsOutClaimPublishWindow is the schedule-pinned regression for
// the undo-chain race: appender A is parked inside its claim→publish window
// (via the publishGate test hook) while appender B claims the next ticket and
// publishes. B's record now sits in the publish ring but the contiguity
// watermark is parked below it at A's hole. The pre-fix Read consulted only
// the watermark-capped search and immediately reported B's record missing —
// which is exactly how a rolling-back transaction chasing its own PrevLSN
// chain hit "undo chain broken: wal: no record at LSN". The fixed Read must
// wait out the transient hole and return the record once A publishes, while
// still reporting a genuinely absent LSN (beyond every claim) without
// blocking.
func TestReadWaitsOutClaimPublishWindow(t *testing.T) {
	l := NewLog(nil)
	gate := make(chan struct{})
	entered := make(chan struct{})
	l.publishGate = func(ticket uint64) {
		if ticket == 0 {
			close(entered)
			<-gate
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Append(&Record{Type: RecUpdate, TxID: 1, Op: OpDataInsert, Payload: []byte("a")})
	}()
	<-entered

	// A holds ticket 0 unpublished; B publishes ticket 1. The watermark
	// cannot advance past A's hole, so B's record is exactly the
	// published-but-uncovered state the race exposes.
	lsnB := l.Append(&Record{Type: RecUpdate, TxID: 2, Op: OpDataInsert, Payload: []byte("b")})

	// A genuinely absent LSN (beyond every claimed byte) must still be
	// reported promptly even while the hole is open.
	if _, err := l.Read(lsnB + 4096); err == nil {
		t.Fatal("Read of an unclaimed LSN succeeded")
	}

	type readRes struct {
		r   *Record
		err error
	}
	got := make(chan readRes, 1)
	go func() {
		r, err := l.Read(lsnB)
		got <- readRes{r, err}
	}()

	select {
	case rr := <-got:
		if rr.err != nil {
			t.Fatalf("Read(%d) inside the claim→publish window: %v (published record reported missing — the undo-chain race)", lsnB, rr.err)
		}
		t.Fatalf("Read(%d) returned before the watermark could cover the record", lsnB)
	case <-time.After(50 * time.Millisecond):
		// Fixed behavior: Read is waiting out the hole.
	}

	close(gate)
	wg.Wait()
	rr := <-got
	if rr.err != nil {
		t.Fatalf("Read(%d) after the hole closed: %v", lsnB, rr.err)
	}
	if rr.r.LSN != lsnB || rr.r.TxID != 2 {
		t.Fatalf("Read(%d) = {LSN %d, TxID %d}, want B's record", lsnB, rr.r.LSN, rr.r.TxID)
	}
}

// TestPublishRingBackPressure: an appender parked between its claim and its
// publish holds every appender ringSize-1 or more tickets behind it at the
// ring — they claim past it but never overwrite its entry — and nothing
// deadlocks once it is released. Enough records follow, from concurrent
// appenders, to wrap the 16-bit count more than three times; the log stays
// dense, counts every record, and reads each one back. Read of an LSN inside
// a record fails, and Scan from one starts at the next record.
func TestPublishRingBackPressure(t *testing.T) {
	const (
		parked    = 5            // the parked appender's ticket
		crowd     = 2 * ringSize // appenders that claim behind it
		free      = ringSize - 2 // of those, the ones that may publish past it
		workers   = 4
		perWorker = 50_000
		total     = parked + 1 + crowd + workers*perWorker
	)
	if total <= 3<<16 {
		t.Fatalf("%d records do not wrap the 16-bit count three times", total)
	}
	rec := func(i int) *Record {
		return &Record{Type: RecUpdate, TxID: TxID(i%7 + 1), Op: OpDataInsert, Payload: bytes.Repeat([]byte{byte(i)}, i%29+1)}
	}
	st := &trace.Stats{}
	l := NewLog(st)
	var gated atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	l.publishGate = func(ticket uint64) {
		if ticket == parked && gated.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	for i := 0; i < parked; i++ {
		l.Append(rec(i))
	}
	var wg sync.WaitGroup
	var published atomic.Int64
	appendOne := func(i int) {
		defer wg.Done()
		l.Append(rec(i))
		published.Add(1)
	}
	wg.Add(1)
	go appendOne(parked)
	<-entered
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go appendOne(parked + 1 + i)
	}
	// Each appender that must wait counts one watermark stall as it starts to.
	deadline := time.Now().Add(10 * time.Second)
	for published.Load() < free || st.WatermarkStalls.Load() < crowd-free {
		if time.Now().After(deadline) {
			t.Fatalf("%d appenders published and %d wait at the ring; want %d and %d", published.Load(), st.WatermarkStalls.Load(), free, crowd-free)
		}
		time.Sleep(time.Millisecond)
	}
	if got := published.Load(); got != free {
		t.Fatalf("%d appenders published past the parked one, want %d", got, free)
	}
	if got := l.ring[parked&ringMask].Load(); got != 0 {
		t.Fatalf("the parked appender's ring entry was overwritten with LSN %d", got)
	}
	if got := l.NumRecords(); got != parked {
		t.Fatalf("watermark covers %d records, want %d", got, parked)
	}
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appenders waiting at the ring never published after the parked one was released")
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Append(rec(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if got := l.NumRecords(); got != total {
		t.Fatalf("NumRecords = %d, want %d", got, total)
	}
	recs := l.SnapshotFrom(1)
	if len(recs) != total {
		t.Fatalf("%d records, want %d", len(recs), total)
	}
	checkDense(t, recs, 1)
	for _, r := range recs {
		got, err := l.Read(r.LSN)
		if err != nil || !bytes.Equal(got.Encode(), r.Encode()) {
			t.Fatalf("Read(%d) = %v, %v; want %v", r.LSN, got, err, r)
		}
	}
	mid := recs[total/2]
	if r, err := l.Read(mid.LSN + 1); err == nil {
		t.Fatalf("Read inside the record at LSN %d returned %v", mid.LSN, r)
	}
	l.Scan(mid.LSN+1, func(r *Record) bool {
		if want := recs[total/2+1].LSN; r.LSN != want {
			t.Fatalf("Scan from inside the record at LSN %d starts at %d, want %d", mid.LSN, r.LSN, want)
		}
		return false
	})
	if err := l.CodecRoundTrip(); err != nil {
		t.Fatal(err)
	}
}
