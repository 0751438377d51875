package devirt

import mathbits "math/bits"

// The frontier's circular window must exceed the largest single
// conductor step cost, costBoundary + costReserved = 73; 128 keeps the
// index computation a mask.
const (
	numBuckets = 128
	bucketMask = numBuckets - 1
)

// frontier is the monotone priority queue of the region router (Dial's
// algorithm): a circular array of numBuckets distance buckets, each a
// bitset over conductor index. Distances only grow and every live entry
// lies within [cur, cur+costBoundary+costReserved], so the window
// serves any search.
//
// Determinism: a bucket drains lowest set bit first — ascending
// conductor order — and no entry can join the draining bucket, every
// step cost being at least costInternal (> 0). With monotone distances
// that is exactly the (dist, cond) order of a binary heap.
//
// A conductor may sit in several buckets at once but only once in any
// one; the router pushes a conductor once per search.
type frontier struct {
	nw    int      // words per bucket: a bitset over the region's conductors
	words []uint64 // numBuckets rows of nw words
	cnt   [numBuckets]int32
	cur   int32 // distance currently draining
	wi    int   // first word of the draining bucket that may be non-zero
	n     int   // entries across all buckets
}

func newFrontier(nw int) frontier {
	return frontier{nw: nw, words: make([]uint64, numBuckets*nw)}
}

// reset empties the frontier. Only occupied buckets are cleared: after
// an early exit those are the few distances ahead of cur, not all
// numBuckets × nw words.
func (q *frontier) reset() {
	for d := q.cur; q.n > 0; d++ {
		b := int(d & bucketMask)
		if q.cnt[b] == 0 {
			continue
		}
		q.n -= int(q.cnt[b])
		q.cnt[b] = 0
		clear(q.words[b*q.nw : (b+1)*q.nw])
	}
	q.cur, q.wi = 0, 0
}

// push enqueues conductor c at distance d. d must be >= the distance
// of the last pop (monotonicity) and within the window.
func (q *frontier) push(d, c int32) {
	b := int(d & bucketMask)
	q.words[b*q.nw+int(c>>6)] |= 1 << uint(c&63)
	q.cnt[b]++
	q.n++
}

// pop removes the frontier entry with the smallest (distance,
// conductor) pair, returning ok=false when the frontier is empty.
func (q *frontier) pop() (c, d int32, ok bool) {
	if q.n == 0 {
		return 0, 0, false
	}
	b := int(q.cur & bucketMask)
	for q.cnt[b] == 0 {
		q.cur++
		q.wi = 0
		b = int(q.cur & bucketMask)
	}
	row := q.words[b*q.nw : (b+1)*q.nw]
	wi := q.wi
	for row[wi] == 0 {
		wi++
	}
	x := row[wi]
	row[wi] = x & (x - 1)
	q.wi = wi
	q.cnt[b]--
	q.n--
	return int32(wi<<6 + mathbits.TrailingZeros64(x)), q.cur, true
}
