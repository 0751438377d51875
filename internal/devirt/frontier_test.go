package devirt

import (
	"math/rand"
	"slices"
	"testing"
)

// bucketQueue is the sort-based bucket queue the bitset frontier
// replaced, kept verbatim as the reference of the frontier differential
// test: a circular array of numBuckets conductor lists, each sorted
// once when the drain reaches its distance, so entries of one distance
// pop in ascending conductor order.
type bucketQueue struct {
	buckets [numBuckets][]int32
	cur     int32 // distance currently draining
	idx     int   // next entry within buckets[cur&bucketMask]
	n       int   // entries across all buckets (including stale ones)
}

// reset empties the queue, retaining bucket capacity.
func (q *bucketQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.cur, q.idx, q.n = 0, 0, 0
}

// push enqueues conductor c at distance d. d must be >= the distance
// of the last pop (monotonicity), which Dijkstra guarantees.
func (q *bucketQueue) push(d, c int32) {
	b := d & bucketMask
	q.buckets[b] = append(q.buckets[b], c)
	q.n++
}

// pop removes the frontier entry with the smallest (distance,
// conductor) pair, returning ok=false when the queue is empty.
func (q *bucketQueue) pop() (c, d int32, ok bool) {
	for q.n > 0 {
		b := q.buckets[q.cur&bucketMask]
		if q.idx >= len(b) {
			q.buckets[q.cur&bucketMask] = b[:0]
			q.cur++
			q.idx = 0
			continue
		}
		if q.idx == 0 {
			slices.Sort(b)
		}
		c = b[q.idx]
		q.idx++
		q.n--
		return c, q.cur, true
	}
	return 0, 0, false
}

// empty reports whether the frontier holds nothing at all: no entry
// counted and no bit left behind in any bucket.
func (q *frontier) empty() bool {
	if q.n != 0 || q.cur != 0 || q.wi != 0 {
		return false
	}
	for _, c := range q.cnt {
		if c != 0 {
			return false
		}
	}
	for _, w := range q.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestFrontierMatchesBucketQueue drives the bitset frontier and the
// sort-based queue it replaced with one monotone push/pop stream and
// requires identical (cond, dist) sequences. The streams are wider than
// anything the router produces: a conductor is re-pushed at a lower
// distance while an older entry for it is still queued, step costs run
// up to the full window, distances climb far enough to wrap the 128
// buckets many times, and some streams stop early and reset with
// entries left behind (the early exit).
func TestFrontierMatchesBucketQueue(t *testing.T) {
	const maxStep = costBoundary + costReserved
	var wraps, lowerRepushes, leftBehind int
	for _, conds := range []int{1, 63, 64, 65, 268, 912} {
		fr := newFrontier(len(newBitset(conds)))
		var bq bucketQueue
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed<<12 + int64(conds)))
			if !fr.empty() {
				t.Fatalf("conds %d seed %d: frontier not empty after reset", conds, seed)
			}
			bq.reset()
			// queued[c] holds the distances conductor c is queued at, so a
			// stream never puts one conductor into one bucket twice.
			queued := make(map[int32][]int32)
			push := func(d, c int32) {
				if slices.Contains(queued[c], d) {
					return
				}
				queued[c] = append(queued[c], d)
				fr.push(d, c)
				bq.push(d, c)
			}
			for i := rng.Intn(4) + 1; i > 0; i-- {
				push(0, int32(rng.Intn(conds))) // seeds
			}
			pops, stop := 0, rng.Intn(600)
			for {
				c, d, ok := fr.pop()
				rc, rd, rok := bq.pop()
				if c != rc || d != rd || ok != rok {
					t.Fatalf("conds %d seed %d pop %d: (%d,%d,%v), reference (%d,%d,%v)",
						conds, seed, pops, c, d, ok, rc, rd, rok)
				}
				if !ok {
					break
				}
				if d >= 2*numBuckets {
					wraps++
				}
				queued[c] = slices.DeleteFunc(queued[c], func(x int32) bool { return x == d })
				if pops++; pops == stop {
					break // early exit: entries stay behind for reset
				}
				for i := rng.Intn(4); i > 0 && pops < 400; i-- {
					to := int32(rng.Intn(conds))
					nd := d + int32(rng.Intn(maxStep)) + 1
					push(nd, to)
					if far := queued[to]; len(far) > 0 && far[0] > nd+1 {
						push(nd+1, to) // the same conductor again, below an older entry
						lowerRepushes++
					}
				}
			}
			leftBehind += fr.n
			fr.reset()
		}
	}
	if wraps == 0 || lowerRepushes == 0 || leftBehind == 0 {
		t.Errorf("streams too tame: %d pops past two windows, %d lower re-pushes, %d entries left for reset",
			wraps, lowerRepushes, leftBehind)
	}
}
