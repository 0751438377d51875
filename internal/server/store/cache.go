package store

import (
	"container/list"
	"sync"
)

// Cache is a strict-LRU cache keyed by content digest, bounded by a
// caller-defined cost (entries, bits, bytes — the cost function is the
// caller's). It is safe for concurrent use. The zero capacity means
// unbounded.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int64
	cost     func(V) int64
	used     int64
	order    *list.List // front = most recent
	items    map[Digest]*list.Element

	hits, misses, evictions uint64
}

type cacheItem[V any] struct {
	key  Digest
	val  V
	cost int64
}

// NewCache returns an LRU bounded at capacity total cost. costFn
// prices one value; nil prices every value at 1 (capacity counts
// entries). capacity <= 0 means unbounded.
func NewCache[V any](capacity int64, costFn func(V) int64) *Cache[V] {
	if costFn == nil {
		costFn = func(V) int64 { return 1 }
	}
	return &Cache[V]{
		capacity: capacity,
		cost:     costFn,
		order:    list.New(),
		items:    make(map[Digest]*list.Element),
	}
}

// Get returns the cached value for d, marking it most recently used.
func (c *Cache[V]) Get(d Digest) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[d]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem[V]).val, true
}

// Put inserts or refreshes a value, evicting least-recently-used
// entries until the cache fits its capacity. A single value larger
// than the whole capacity is not admitted.
func (c *Cache[V]) Put(d Digest, v V) {
	cost := c.cost(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[d]; ok {
		it := el.Value.(*cacheItem[V])
		c.used += cost - it.cost
		it.val, it.cost = v, cost
		c.order.MoveToFront(el)
	} else {
		if c.capacity > 0 && cost > c.capacity {
			return
		}
		c.items[d] = c.order.PushFront(&cacheItem[V]{key: d, val: v, cost: cost})
		c.used += cost
	}
	for c.capacity > 0 && c.used > c.capacity {
		c.evictOldest()
	}
}

func (c *Cache[V]) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	it := el.Value.(*cacheItem[V])
	c.order.Remove(el)
	delete(c.items, it.key)
	c.used -= it.cost
	c.evictions++
}

// CacheStats is a point-in-time snapshot of cache behaviour.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Used      int64  `json:"used"`
	Capacity  int64  `json:"capacity"`
}

// Stats returns current counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Used:      c.used,
		Capacity:  c.capacity,
	}
}
