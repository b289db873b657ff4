package harness

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

func val(s string) *string { return &s }

// Records can arrive against commit order (early lock release lets a
// transaction commit behind the one whose lock it took and be recorded
// first); the ledger must end with what the later commit wrote.
func TestLedgerFollowsCommitOrder(t *testing.T) {
	l := newLedger()
	l.record(20, staged{"k": val("second"), "gone": nil})
	l.record(10, staged{"k": val("first"), "gone": val("inserted before the delete")})
	l.record(30, staged{"other": val("x")})
	want := map[string]string{"k": "second", "other": "x"}
	if got := l.through(30); !maps.Equal(got, want) {
		t.Fatalf("through(30) = %v, want %v", got, want)
	}
	if got := l.state(); !maps.Equal(got, want) {
		t.Fatalf("state() = %v, want %v", got, want)
	}
	if got := l.through(15); !maps.Equal(got, map[string]string{"k": "first", "gone": "inserted before the delete"}) {
		t.Fatalf("through(15) = %v", got)
	}
	if l.latest("k") != "second" || l.latest("gone") != "" || l.latest("never") != "" {
		t.Fatalf("latest: k=%q gone=%q never=%q", l.latest("k"), l.latest("gone"), l.latest("never"))
	}
}

// through(L) must equal a brute-force replay that walks every LSN up to L
// one by one, at every L, with the entries recorded in shuffled order; past
// the last entry, so must state() and latest.
func TestLedgerThroughMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const maxLSN = 120
	byLSN := map[wal.LSN]staged{}
	for lsn := wal.LSN(1); lsn <= maxLSN; lsn++ {
		if rng.Intn(3) == 0 {
			continue // not every LSN is a commit record
		}
		st := staged{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			k := fmt.Sprintf("k%d", rng.Intn(6))
			if rng.Intn(4) == 0 {
				st[k] = nil
			} else {
				st[k] = val(fmt.Sprintf("v%d", lsn))
			}
		}
		byLSN[lsn] = st
	}
	l := newLedger()
	order := make([]wal.LSN, 0, len(byLSN))
	for lsn := range byLSN {
		order = append(order, lsn)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, lsn := range order {
		l.record(lsn, byLSN[lsn])
	}
	brute := map[string]string{}
	for L := wal.LSN(0); L <= maxLSN+1; L++ {
		for k, v := range byLSN[L] {
			if v == nil {
				delete(brute, k)
			} else {
				brute[k] = *v
			}
		}
		if got := l.through(L); !maps.Equal(got, brute) {
			t.Fatalf("through(%d) = %v, brute force %v", L, got, brute)
		}
	}
	if got := l.state(); !maps.Equal(got, brute) {
		t.Fatalf("state() = %v, brute force %v", got, brute)
	}
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("k%d", i)
		if l.latest(k) != brute[k] {
			t.Fatalf("latest(%q) = %q, want %q", k, l.latest(k), brute[k])
		}
	}
}

// The standby sweep's fold: each generation's entries count exactly when
// their commit record is in that generation's log, the second generation's
// on top of the first's; acked entries a log lost are reported.
func TestLedgerHeldByPerGeneration(t *testing.T) {
	commit := func(log *wal.Log) wal.LSN {
		lsn := log.Append(&wal.Record{Type: wal.RecCommit})
		log.Append(&wal.Record{Type: wal.RecEnd})
		return lsn
	}
	old := wal.NewLog(&trace.Stats{})
	gen1 := newLedger()
	a := commit(old)
	gen1.record(a, staged{"k": val("a"), "x": val("a")})
	gen1.ack(a)
	old.ForceAll()
	// b and c reach the log unforced; the crash loses them. b's client was
	// never told (in doubt), c's was (lost, which only an async standby allows).
	b, c := commit(old), commit(old)
	gen1.record(b, staged{"k": val("b")})
	gen1.record(c, staged{"x": nil})
	gen1.ack(c)
	old.Crash()
	if in, out, lost := gen1.resolve(old); in != 0 || out != 1 || lost != c {
		t.Fatalf("resolve = %d in, %d out, lost %d; want 0, 1, %d", in, out, lost, c)
	}

	// The promoted node's log continues where the old one survived, so its
	// first commit reuses b's LSN: only the generation tells them apart.
	promoted := old.Clone(&trace.Stats{})
	gen2 := newLedger()
	d := commit(promoted)
	if d != b {
		t.Fatalf("promoted commit at LSN %d, want b's %d", d, b)
	}
	gen2.record(d, staged{"y": val("d")})
	gen2.record(d+1000, staged{"k": val("not in the promoted log")})
	want := map[string]string{"k": "a", "x": "a", "y": "d"}
	if got := gen2.heldBy(gen1.heldBy(nil, old), promoted); !maps.Equal(got, want) {
		t.Fatalf("held = %v, want %v", got, want)
	}
}
