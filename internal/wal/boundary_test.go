package wal

import (
	"bytes"
	"testing"
)

// FuzzLogBoundaries drives a log through appends of every size — small
// records crossing index blocks, and records that span one chunk boundary,
// end exactly on one, or span three chunks — and through forces,
// truncations, torn-tail crashes, clones, reads and scans at arbitrary LSNs,
// and a fresh log receiving the stable prefix (which then carries on as the
// log), checking it after every step against a slice of the encoded records
// that must survive. An input is a list of (op, arg) byte pairs.
func FuzzLogBoundaries(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 7, 2, 1, 0, 3, 4, 2, 6, 0x31})
	f.Add([]byte{1, 3, 1, 4, 0, 9, 2, 0, 1, 5, 0, 5, 6, 0x12, 3, 2, 0, 1})
	f.Add([]byte{0, 1, 1, 4, 5, 0, 1, 2, 2, 0, 4, 3, 6, 0x25, 5, 0, 1, 3})
	f.Add(bytes.Repeat([]byte{0, 200, 0, 17, 2, 5, 6, 0x40}, 40))
	f.Add([]byte{1, 0, 0, 3, 1, 2, 0, 4, 2, 0, 7, 1, 0, 5, 7, 0, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := NewLog(nil)
		var model [][]byte // the encoded records the log must hold, in order
		var lsns []LSN     // and their LSNs
		stable, big := 0, 0
		lsnOf := func(i int) LSN { // model record i's LSN; NilLSN before the first, NextLSN after the last
			switch {
			case i < 0:
				return NilLSN
			case i < len(lsns):
				return lsns[i]
			case i == 0:
				return 1
			}
			return lsns[i-1] + LSN(len(model[i-1]))
		}
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step]%8, int(ops[step+1])
			switch op {
			case 0, 1: // append a small record, or (at most 8 times) a big one
				r := &Record{Type: RecUpdate, TxID: TxID(arg + 1), PrevLSN: LSN(step), Page: 3, Op: OpDataInsert}
				size := arg % 64
				if op == 1 && big < 8 {
					big++
					toBoundary := chunkSize - int(l.Bytes()&chunkMask)
					switch arg % 3 {
					case 0: // spans one chunk boundary
						size = toBoundary + 1 + arg
					case 1: // ends exactly on one
						size = toBoundary
					case 2: // spans three chunks
						size = toBoundary + chunkSize + 1 + arg
					}
					if size < r.EncodedSize() {
						size += chunkSize
					}
					size -= r.EncodedSize()
				}
				r.Payload = bytes.Repeat([]byte{byte(step)}, size)
				if lsn := l.Append(r); lsn != lsnOf(len(model)) {
					t.Fatalf("step %d: appended at LSN %d, want %d", step, lsn, lsnOf(len(model)))
				}
				lsns = append(lsns, r.LSN)
				model = append(model, r.Encode())
			case 2: // force everything, or up to a record
				if arg%4 == 0 || len(model) == 0 {
					l.ForceAll()
					stable = len(model)
				} else {
					i := arg % len(model)
					l.Force(lsns[i])
					stable = max(stable, i+1)
				}
			case 3: // truncate at a record boundary
				k := arg % (len(model) + 1)
				l.TruncateTo(lsnOf(k - 1))
				stable = k
			case 4: // crash, up to three unforced records reaching the disk, the last torn
				extra := min(arg%4, len(model)-stable)
				l.CrashWithTornTail(arg % 4)
				stable += max(extra-1, 0)
			case 5: // clone; an append to the original must not show in the clone
				c := l.Clone(nil)
				l.Append(&Record{Type: RecCommit, TxID: 99})
				if got := l.NumRecords(); got != len(model)+1 {
					t.Fatalf("step %d: original holds %d records after its append, want %d", step, got, len(model)+1)
				}
				l = c
			case 6: // read and scan at an LSN at, just before or just after a record start
				k := arg % (len(model) + 1)
				lsn := lsnOf(k) + LSN(arg>>4%3) - 1
				at, first := -1, len(model)
				for i := len(model) - 1; i >= 0 && lsns[i] >= lsn; i-- {
					first = i
				}
				if first < len(model) && lsns[first] == lsn {
					at = first
				}
				r, err := l.Read(lsn)
				if (err == nil) != (at >= 0) || at >= 0 && !bytes.Equal(r.Encode(), model[at]) {
					t.Fatalf("step %d: Read(%d) = %v, %v; want record %d", step, lsn, r, err, at)
				}
				var got []*Record
				l.Scan(lsn, func(r *Record) bool { got = append(got, r); return false })
				if first < len(model) && (len(got) == 0 || got[0].LSN != lsns[first]) || first == len(model) && len(got) != 0 {
					t.Fatalf("step %d: Scan(%d) starts at %v, want record %d", step, lsn, got, first)
				}
			case 7: // a fresh log receives the stable prefix from record k (a gap unless k is 0 or beyond it), then all of it; it carries on as the log
				k := arg % (len(model) + 1)
				r := NewLog(nil)
				n, err := r.Receive(l.ShipFrom(lsnOf(k)))
				if gap := k > 0 && k < stable; (err != nil) != gap || n != 0 && (k > 0 || n != stable) {
					t.Fatalf("step %d: receiving from record %d of %d stable: %d appended, %v", step, k, stable, n, err)
				}
				if m, err := r.Receive(l.ShipFrom(1)); err != nil || n+m != stable {
					t.Fatalf("step %d: receiving the stable prefix of %d records: %d then %d appended, %v", step, stable, n, m, err)
				}
				if got, want := r.ShipFrom(1).Body, l.ShipFrom(1).Body; !bytes.Equal(got, want) {
					t.Fatalf("step %d: the receiver's %d bytes differ from the sender's %d", step, len(got), len(want))
				}
				l = r
			}
			if op == 3 || op == 4 || op == 7 {
				model, lsns = model[:stable], lsns[:stable]
			}
			checkModel(t, step, l, model, lsnOf(stable-1))
		}
	})
}

// checkModel fails unless l holds exactly the encoded records of model, with
// the stable mark at stable.
func checkModel(t *testing.T, step int, l *Log, model [][]byte, stable LSN) {
	t.Helper()
	size, last := 0, NilLSN
	for _, b := range model {
		last = LSN(size + 1)
		size += len(b)
	}
	if l.NumRecords() != len(model) || l.MaxLSN() != last || l.Bytes() != uint64(size) || l.NextLSN() != LSN(size+1) || l.StableLSN() != stable {
		t.Fatalf("step %d: %d records, max LSN %d, %d bytes, next LSN %d, stable %d; want %d, %d, %d, %d, %d",
			step, l.NumRecords(), l.MaxLSN(), l.Bytes(), l.NextLSN(), l.StableLSN(), len(model), last, size, size+1, stable)
	}
	for i, r := range l.SnapshotFrom(1) {
		if !bytes.Equal(r.Encode(), model[i]) {
			t.Fatalf("step %d: record %d at LSN %d differs from the model", step, i, r.LSN)
		}
	}
	if err := l.CodecRoundTrip(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}
