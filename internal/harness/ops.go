package harness

import (
	"fmt"
	"math/rand"
)

// OpKind is a generated operation's type.
type OpKind int

const (
	// OpRead fetches a key.
	OpRead OpKind = iota
	// OpInsert stores a new row (or re-inserts a deleted key).
	OpInsert
	// OpDelete removes a row.
	OpDelete
	// OpScan reads a short range.
	OpScan
)

// Mix describes an operation stream: uniform keys over [0, Keys), the
// read / insert / delete shares (the remainder are short scans) and the seed
// that makes the stream deterministic.
type Mix struct {
	Keys                             int
	ReadFrac, InsertFrac, DeleteFrac float64
	Seed                             int64
}

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte
}

// Ops produces the deterministic operation stream of a Mix.
type Ops struct {
	mix Mix
	rng *rand.Rand
}

// NewOps builds the stream for m (Keys defaults to 10,000).
func NewOps(m Mix) *Ops {
	if m.Keys <= 0 {
		m.Keys = 10000
	}
	return &Ops{mix: m, rng: rand.New(rand.NewSource(m.Seed))}
}

// keyFor formats key number i; the fixed width keeps byte order equal to
// numeric order.
func keyFor(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// Next returns the next operation: one draw for the key, one for the kind.
func (g *Ops) Next() Op {
	n := g.rng.Intn(g.mix.Keys)
	op := Op{Key: keyFor(n)}
	r := g.rng.Float64()
	switch {
	case r < g.mix.ReadFrac:
		op.Kind = OpRead
	case r < g.mix.ReadFrac+g.mix.InsertFrac:
		op.Kind = OpInsert
		op.Value = opValue(n)
	case r < g.mix.ReadFrac+g.mix.InsertFrac+g.mix.DeleteFrac:
		op.Kind = OpDelete
	default:
		op.Kind = OpScan
	}
	return op
}

// opValue is key number n's 32-byte payload.
func opValue(n int) []byte {
	v := make([]byte, 32)
	for i := range v {
		v[i] = byte('a' + (n+i)%26)
	}
	return v
}
