package mvcc

// chainIndex is one table's chains in key order: a skip list threaded
// through the chains themselves (chain.next), so point lookup, insert,
// remove and "first chain at or after k" are all O(log n) and a range
// walk costs one step per chain in the range. It is the only index —
// Read and Push find their chain through it too — so there is no second
// structure to keep in step. Callers hold the owning table's mutex.
type chainIndex struct {
	head  [maxIndexLevel]*chain // head[l] is the first chain on level l
	level int                   // levels in use
	rng   uint64                // xorshift state for tower heights
}

// maxIndexLevel bounds tower height; at one promotion in four, 12 levels
// keep lookups logarithmic up to 4^12 chains per table.
const maxIndexLevel = 12

// indexPath records, per level, the last chain before a seek's target
// (nil = the head), which is where an insert or remove relinks.
type indexPath [maxIndexLevel]*chain

// seek returns the first chain with key >= k (nil past the end) and the
// number of chains whose keys it compared on the way. path, when non-nil,
// receives the predecessors an insert or remove relinks.
func (ix *chainIndex) seek(k string, path *indexPath) (c *chain, examined uint64) {
	var prev *chain
	for l := ix.level - 1; l >= 0; l-- {
		for {
			c = ix.after(prev, l)
			if c == nil {
				break
			}
			examined++
			if c.key >= k {
				break
			}
			prev = c
		}
		if path != nil {
			path[l] = prev
		}
	}
	return ix.after(prev, 0), examined
}

// after returns prev's successor on level l; a nil prev is the head.
func (ix *chainIndex) after(prev *chain, l int) *chain {
	if prev == nil {
		return ix.head[l]
	}
	return prev.next[l]
}

func (ix *chainIndex) setAfter(prev *chain, l int, c *chain) {
	if prev == nil {
		ix.head[l] = c
	} else {
		prev.next[l] = c
	}
}

// get returns the chain for key k, or nil.
func (ix *chainIndex) get(k string) *chain {
	if c, _ := ix.seek(k, nil); c != nil && c.key == k {
		return c
	}
	return nil
}

// insertAfter links c, whose key the index must not yet hold, behind the
// predecessors a seek for c.key recorded in path.
func (ix *chainIndex) insertAfter(path *indexPath, c *chain) {
	height := ix.randomHeight()
	for ; ix.level < height; ix.level++ {
		path[ix.level] = nil
	}
	c.next = make([]*chain, height)
	for l := range c.next {
		c.next[l] = ix.after(path[l], l)
		ix.setAfter(path[l], l, c)
	}
}

// remove unlinks c; it reports false if the index does not hold c itself
// (already removed, or a successor chain took over the key).
func (ix *chainIndex) remove(c *chain) bool {
	var path indexPath
	if at, _ := ix.seek(c.key, &path); at != c {
		return false
	}
	for l := range c.next {
		ix.setAfter(path[l], l, c.next[l])
	}
	for ix.level > 0 && ix.head[ix.level-1] == nil {
		ix.level--
	}
	return true
}

// randomHeight draws a tower height: each further level with probability
// 1/4. The generator is per index and seeded by a constant, so a given
// operation sequence always builds the same list.
func (ix *chainIndex) randomHeight() int {
	if ix.rng == 0 {
		ix.rng = 0x9E3779B97F4A7C15
	}
	ix.rng ^= ix.rng << 13
	ix.rng ^= ix.rng >> 7
	ix.rng ^= ix.rng << 17
	height := 1
	for r := ix.rng; r&3 == 0 && height < maxIndexLevel; r >>= 2 {
		height++
	}
	return height
}
