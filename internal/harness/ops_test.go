package harness

import "testing"

func TestDeterminism(t *testing.T) {
	m := Mix{Keys: 100, ReadFrac: 0.5, InsertFrac: 0.3, DeleteFrac: 0.1, Seed: 42}
	a, b := NewOps(m), NewOps(m)
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Kind != ob.Kind || string(oa.Key) != string(ob.Key) {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestMixFractions(t *testing.T) {
	g := NewOps(Mix{Keys: 1000, ReadFrac: 0.7, InsertFrac: 0.2, DeleteFrac: 0.1, Seed: 1})
	counts := map[OpKind]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next().Kind]++
	}
	if counts[OpRead] < 6500 || counts[OpRead] > 7500 {
		t.Fatalf("reads = %d, want ~7000", counts[OpRead])
	}
	if counts[OpInsert] < 1500 || counts[OpInsert] > 2500 {
		t.Fatalf("inserts = %d, want ~2000", counts[OpInsert])
	}
}

func TestKeyForOrdering(t *testing.T) {
	if string(keyFor(9)) >= string(keyFor(10)) {
		t.Fatal("byte order != numeric order")
	}
}
