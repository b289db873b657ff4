package workload

import "testing"

func TestDeterminism(t *testing.T) {
	spec := Spec{Keys: 100, Dist: Zipf, ReadFrac: 0.5, InsertFrac: 0.3, DeleteFrac: 0.1, Seed: 42}
	a, b := New(spec), New(spec)
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Kind != ob.Kind || string(oa.Key) != string(ob.Key) {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestMixFractions(t *testing.T) {
	g := New(Spec{Keys: 1000, ReadFrac: 0.7, InsertFrac: 0.2, DeleteFrac: 0.1, Seed: 1})
	counts := map[Kind]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next().Kind]++
	}
	if counts[Read] < 6500 || counts[Read] > 7500 {
		t.Fatalf("reads = %d, want ~7000", counts[Read])
	}
	if counts[Insert] < 1500 || counts[Insert] > 2500 {
		t.Fatalf("inserts = %d, want ~2000", counts[Insert])
	}
}

func TestSequentialKeys(t *testing.T) {
	g := New(Spec{Keys: 10, Dist: Sequential, InsertFrac: 1})
	k0, k1 := g.Next().Key, g.Next().Key
	if string(k0) >= string(k1) {
		t.Fatalf("sequential keys not increasing: %s %s", k0, k1)
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(Spec{Keys: 10000, Dist: Zipf, ReadFrac: 1, Seed: 3})
	hot := 0
	for i := 0; i < 10000; i++ {
		if string(g.Next().Key) == string(KeyFor(0)) {
			hot++
		}
	}
	if hot < 1000 {
		t.Fatalf("zipf hot key drawn %d times out of 10000; not skewed", hot)
	}
}

func TestKeyForOrdering(t *testing.T) {
	if string(KeyFor(9)) >= string(KeyFor(10)) {
		t.Fatal("byte order != numeric order")
	}
}
