package trace

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.CountLock(1, 2, 1) // must not panic
	if s.LockCalls(1, 2, 1) != 0 || s.TotalLockCalls() != 0 {
		t.Fatal("nil stats returned nonzero")
	}
	sn := s.Snap()
	if sn.TotalLocks() != 0 {
		t.Fatal("nil snapshot nonzero")
	}
}

func TestLockTableClamping(t *testing.T) {
	s := &Stats{}
	s.CountLock(-5, 999, -1) // clamped, not panicking
	if s.TotalLockCalls() != 1 {
		t.Fatalf("clamped count = %d", s.TotalLockCalls())
	}
}

// TestSnapshotDiff sets every scalar counter of Stats — found by reflection,
// so one added to the struct and forgotten in the counters list fails here —
// to a value of its own and requires Snap and Diff to report each in the
// Snapshot field of the same name.
func TestSnapshotDiff(t *testing.T) {
	s := &Stats{}
	s.CountLock(1, 3, 2)
	scalars := func(add uint64) map[string]uint64 {
		set := map[string]uint64{}
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				if c, ok := v.Field(i).Addr().Interface().(*atomic.Uint64); ok {
					set[f.Name] = c.Add(add + uint64(i))
				}
			}
		}
		return set
	}
	first := scalars(100)
	before := s.Snap()
	s.CountLock(1, 3, 2)
	s.CountLock(2, 5, 0)
	second := scalars(1000)
	after := s.Snap()
	d := Diff(before, after)

	if len(first) < 69 {
		t.Fatalf("reflection found only %d counters", len(first))
	}
	for name := range first {
		field := func(sn Snapshot) uint64 {
			f := reflect.ValueOf(sn).FieldByName(name)
			if !f.IsValid() {
				t.Fatalf("Snapshot has no field %s", name)
			}
			return f.Uint()
		}
		if field(before) != first[name] || field(after) != second[name] {
			t.Errorf("%s: Snap read %d then %d, want %d then %d", name, field(before), field(after), first[name], second[name])
		}
		want := second[name] - first[name]
		if name == "VersionChainPeak" {
			want = second[name] // a gauge: the diff carries the later reading
		}
		if field(d) != want {
			t.Errorf("%s: Diff = %d, want %d", name, field(d), want)
		}
	}
	if d.LockCalls[1][3][2] != 1 || d.LockCalls[2][5][0] != 1 || d.TotalLocks() != 2 {
		t.Fatalf("diff cells wrong: %d %d, total %d", d.LockCalls[1][3][2], d.LockCalls[2][5][0], d.TotalLocks())
	}
}

func TestFormatLockTable(t *testing.T) {
	RegisterSpaceName(1, "record")
	RegisterModeName(3, "S")
	RegisterDurationName(2, "commit")
	s := &Stats{}
	s.CountLock(1, 3, 2)
	out := s.Snap().FormatLockTable()
	for _, want := range []string{"record", "S", "commit", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	empty := (&Stats{}).Snap().FormatLockTable()
	if !strings.Contains(empty, "no locks") {
		t.Fatalf("empty table = %q", empty)
	}
}

func TestUnregisteredNamesFallBack(t *testing.T) {
	s := &Stats{}
	s.CountLock(9, 6, 3) // nothing registered at these indices
	cells := s.Snap().NonzeroLockCells()
	if len(cells) != 1 {
		t.Fatalf("cells = %v", cells)
	}
	if cells[0].Space == "" || cells[0].Mode == "" {
		t.Fatal("fallback names empty")
	}
}

func TestConcurrentCounting(t *testing.T) {
	s := &Stats{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.CountLock(i%4, i%6, i%3)
				s.PageFixes.Add(1)
			}
		}()
	}
	wg.Wait()
	if s.TotalLockCalls() != 8000 {
		t.Fatalf("total = %d", s.TotalLockCalls())
	}
	if s.PageFixes.Load() != 8000 {
		t.Fatalf("fixes = %d", s.PageFixes.Load())
	}
}
