package harness

import (
	"slices"
	"sync"

	"ariesim/internal/wal"
)

// staged is one transaction's writes: key → new value, nil = deleted.
type staged map[string]*string

// ledger is the harness's one model of committed state: each commit's writes
// keyed by its commit-record LSN. Commits are recorded as their goroutines
// get there, which is not commit order — with early lock release a
// transaction can take a lock its predecessor has just dropped, commit behind
// it and be recorded first — so every question about committed state folds
// the entries in LSN order instead.
type ledger struct {
	mu      sync.Mutex
	entries map[wal.LSN]*ledgerEntry
	last    map[string]wal.LSN // commit LSN of each key's latest write, deletes included
	acked   int
}

// ledgerEntry is one commit: its writes and whether its client was told.
type ledgerEntry struct {
	writes staged
	acked  bool
}

func newLedger() *ledger {
	return &ledger{entries: map[wal.LSN]*ledgerEntry{}, last: map[string]wal.LSN{}}
}

// record enters the writes of the transaction whose commit record is at lsn.
// The caller must not change st afterwards.
func (l *ledger) record(lsn wal.LSN, st staged) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[lsn] = &ledgerEntry{writes: st}
	for k := range st {
		if l.last[k] < lsn {
			l.last[k] = lsn
		}
	}
}

// ack marks the commit at lsn acknowledged to its client.
func (l *ledger) ack(lsn wal.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entries[lsn]; e != nil && !e.acked {
		e.acked = true
		l.acked++
	}
}

func (l *ledger) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// latest returns k's value as the highest-LSN commit that wrote it left it,
// "" when that commit deleted it or none wrote it.
func (l *ledger) latest(k string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn, ok := l.last[k]; ok {
		if v := l.entries[lsn].writes[k]; v != nil {
			return *v
		}
	}
	return ""
}

// state returns the committed state after every recorded commit — through
// the highest LSN, built from each key's latest write rather than a fold.
func (l *ledger) state() map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := make(map[string]string, len(l.last))
	for k, lsn := range l.last {
		if v := l.entries[lsn].writes[k]; v != nil {
			rows[k] = *v
		}
	}
	return rows
}

// fold applies onto rows (a fresh map when nil), in LSN order, the writes of
// every entry keep admits.
func (l *ledger) fold(rows map[string]string, keep func(wal.LSN) bool) map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := make([]wal.LSN, 0, len(l.entries))
	for lsn := range l.entries {
		if keep(lsn) {
			lsns = append(lsns, lsn)
		}
	}
	slices.Sort(lsns)
	if rows == nil {
		rows = map[string]string{}
	}
	for _, lsn := range lsns {
		for k, v := range l.entries[lsn].writes {
			if v == nil {
				delete(rows, k)
			} else {
				rows[k] = *v
			}
		}
	}
	return rows
}

// through returns the committed state at LSN L: the entries at or below L.
func (l *ledger) through(L wal.LSN) map[string]string {
	return l.fold(nil, func(lsn wal.LSN) bool { return lsn <= L })
}

// heldBy applies onto rows the entries whose commit record log still holds:
// a commit whose outcome its client never learned is in exactly when its
// record survived.
func (l *ledger) heldBy(rows map[string]string, log *wal.Log) map[string]string {
	commits := commitSet(log)
	return l.fold(rows, func(lsn wal.LSN) bool { return commits[lsn] })
}

// resolve sorts the entries by whether log holds their commit record: in and
// out count the unacknowledged ones it holds and does not, and lost is the
// lowest acknowledged one it does not hold (NilLSN if none).
func (l *ledger) resolve(log *wal.Log) (in, out int, lost wal.LSN) {
	commits := commitSet(log)
	l.mu.Lock()
	defer l.mu.Unlock()
	for lsn, e := range l.entries {
		switch {
		case commits[lsn] && !e.acked:
			in++
		case commits[lsn]:
		case !e.acked:
			out++
		case lost == wal.NilLSN || lsn < lost:
			lost = lsn
		}
	}
	return in, out, lost
}

// commitSet collects the LSN of every commit record in the log.
func commitSet(log *wal.Log) map[wal.LSN]bool {
	set := map[wal.LSN]bool{}
	log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecCommit {
			set[r.LSN] = true
		}
		return true
	})
	return set
}
