package trace

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLockTableClamping(t *testing.T) {
	s := &Stats{}
	s.CountLock(-5, 999, -1) // clamped, not panicking
	if got := s.Snap().LockCalls[0][MaxModes-1][0]; got != 1 {
		t.Fatalf("clamped count = %d", got)
	}
}

// TestSnapshotDiff gives every counter of the one list a value of its own
// and requires Snap and Diff to report each in its own field, a gauge's Diff
// keeping the "after" reading.
func TestSnapshotDiff(t *testing.T) {
	s := &Stats{}
	live := reflect.ValueOf(&s.counterSet).Elem()
	bump := func(base uint64) {
		for i := range live.NumField() {
			live.Field(i).Addr().Interface().(*atomic.Uint64).Add(base + uint64(i))
		}
	}
	s.CountLock(1, 3, 2)
	bump(100)
	before := s.Snap()
	s.CountLock(1, 3, 2)
	s.CountLock(2, 5, 0)
	bump(1000)
	after := s.Snap()
	d := Diff(before, after)

	b, a, dv := reflect.ValueOf(before.counterSet), reflect.ValueOf(after.counterSet), reflect.ValueOf(d.counterSet)
	for i := range live.NumField() {
		f := live.Type().Field(i)
		first, second := 100+uint64(i), 1100+2*uint64(i)
		if b.Field(i).Uint() != first || a.Field(i).Uint() != second {
			t.Errorf("%s: Snap read %d then %d, want %d then %d", f.Name, b.Field(i).Uint(), a.Field(i).Uint(), first, second)
		}
		want := second - first
		if f.Tag.Get("trace") == "gauge" {
			want = second
		}
		if dv.Field(i).Uint() != want {
			t.Errorf("%s: Diff = %d, want %d", f.Name, dv.Field(i).Uint(), want)
		}
	}
	if d.VersionChainPeak != after.VersionChainPeak {
		t.Errorf("gauge VersionChainPeak: Diff = %d, want the after reading %d", d.VersionChainPeak, after.VersionChainPeak)
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
	if got := s.Snap().TotalLocks(); got != 8000 {
		t.Fatalf("total = %d", got)
	}
	if s.PageFixes.Load() != 8000 {
		t.Fatalf("fixes = %d", s.PageFixes.Load())
	}
}
