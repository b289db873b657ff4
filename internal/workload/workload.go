// Package workload provides deterministic workload generators for the
// benchmark harness: key distributions (uniform, zipfian, sequential) and
// operation mixes over a bounded key space. Determinism (explicit seeds)
// keeps bench runs comparable across protocols.
package workload

import (
	"fmt"
	"math/rand"
)

// Kind is an operation type.
type Kind int

const (
	// Read fetches a key.
	Read Kind = iota
	// Insert stores a new row (or re-inserts a deleted key).
	Insert
	// Delete removes a row.
	Delete
	// ScanShort reads a short range (16 keys).
	ScanShort
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return "scan"
	}
}

// Dist is a key distribution.
type Dist int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform Dist = iota
	// Zipf draws keys with zipfian skew (hot spots).
	Zipf
	// Sequential draws monotonically increasing keys (append pattern).
	Sequential
)

// Spec describes a workload.
type Spec struct {
	// Keys is the size of the key space.
	Keys int
	// Dist selects the key distribution.
	Dist Dist
	// ReadFrac, InsertFrac, DeleteFrac select the op mix; the remainder
	// becomes short scans. They must sum to <= 1.
	ReadFrac, InsertFrac, DeleteFrac float64
	// ValueSize is the payload size of inserts.
	ValueSize int
	// Seed makes the stream deterministic.
	Seed int64
}

// Op is one generated operation.
type Op struct {
	Kind  Kind
	Key   []byte
	Value []byte
}

// Generator produces a deterministic operation stream.
type Generator struct {
	spec Spec
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

// New builds a generator for spec.
func New(spec Spec) *Generator {
	if spec.Keys <= 0 {
		spec.Keys = 10000
	}
	if spec.ValueSize <= 0 {
		spec.ValueSize = 32
	}
	g := &Generator{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	if spec.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(spec.Keys-1))
	}
	return g
}

// KeyFor formats key number i; the fixed width keeps byte order equal to
// numeric order.
func KeyFor(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func (g *Generator) nextKeyNum() int {
	switch g.spec.Dist {
	case Zipf:
		return int(g.zipf.Uint64())
	case Sequential:
		g.seq++
		return g.seq - 1
	default:
		return g.rng.Intn(g.spec.Keys)
	}
}

// Next returns the next operation in the stream.
func (g *Generator) Next() Op {
	n := g.nextKeyNum()
	op := Op{Key: KeyFor(n)}
	r := g.rng.Float64()
	switch {
	case r < g.spec.ReadFrac:
		op.Kind = Read
	case r < g.spec.ReadFrac+g.spec.InsertFrac:
		op.Kind = Insert
		op.Value = g.Value(n)
	case r < g.spec.ReadFrac+g.spec.InsertFrac+g.spec.DeleteFrac:
		op.Kind = Delete
	default:
		op.Kind = ScanShort
	}
	return op
}

// Value builds a deterministic payload for key number n.
func (g *Generator) Value(n int) []byte {
	v := make([]byte, g.spec.ValueSize)
	for i := range v {
		v[i] = byte('a' + (n+i)%26)
	}
	return v
}
