package histstore

import (
	"container/list"
	"sync"

	"printqueue/internal/core/timewindow"
)

// cacheKey identifies one decoded checkpoint: the segment it lives in and
// its record offset there.
type cacheKey struct {
	seg uint64
	off int64
}

// cachedCheckpoint is one cold checkpoint resident in the LRU, holding what
// interval queries read: the coverage and the time windows. The cache is
// charged for exactly that — the cells the record holds (its sparse
// snapshot, not the register geometry) on insert, then the Algorithm-3 cell
// index (the Filtered form, which shares the cells) when the first
// accumulate builds it.
type cachedCheckpoint struct {
	key        cacheKey
	freezeTime uint64
	prevFreeze uint64
	tw         *timewindow.Snapshot

	filterOnce sync.Once
	filtered   *timewindow.Filtered

	bytes int64 // current charge against the cache budget
}

// Filtered returns the checkpoint's filtered/indexed time-window form,
// building it on first use and charging its footprint to the cache.
func (c *cachedCheckpoint) Filtered(onGrow func(*cachedCheckpoint, int64)) *timewindow.Filtered {
	c.filterOnce.Do(func() {
		c.filtered = c.tw.Filter()
		if onGrow != nil {
			onGrow(c, c.filtered.MemBytes())
		}
	})
	return c.filtered
}

// lruCache is a byte-budgeted LRU of decoded cold checkpoints. It reports
// its resident bytes to two gauges: the store's own cache gauge and the
// shared printqueue_history_bytes gauge (which the control plane's hot tier
// also contributes to).
type lruCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // front = most recent; values are *lruEntry
	entries map[cacheKey]*list.Element

	onBytes func(delta int64) // gauge mirror, called outside the hot loop
}

type lruEntry struct {
	key cacheKey
	cp  *cachedCheckpoint
}

func newLRUCache(budget int64, onBytes func(int64)) *lruCache {
	return &lruCache{
		budget:  budget,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
		onBytes: onBytes,
	}
}

// get returns the cached checkpoint for key, marking it most recently used.
func (c *lruCache) get(key cacheKey) (*cachedCheckpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).cp, true
}

// put inserts a freshly decoded checkpoint, evicting least-recently-used
// entries until the budget holds. If key is already present (a racing
// decode), the existing entry wins and the new one is discarded.
func (c *lruCache) put(key cacheKey, cp *cachedCheckpoint) *cachedCheckpoint {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		existing := el.Value.(*lruEntry).cp
		c.mu.Unlock()
		return existing
	}
	el := c.order.PushFront(&lruEntry{key: key, cp: cp})
	c.entries[key] = el
	delta := cp.bytes + c.evictLocked(cp.bytes)
	c.mu.Unlock()
	if c.onBytes != nil && delta != 0 {
		c.onBytes(delta)
	}
	return cp
}

// grow charges extra bytes to an entry (its lazily built index) and evicts
// to stay within budget. If the entry has already been evicted — the index
// was built after a racing eviction — the charge is skipped: its bytes are
// no longer counted in the pool.
func (c *lruCache) grow(cp *cachedCheckpoint, extra int64) {
	c.mu.Lock()
	el, live := c.entries[cp.key]
	if !live || el.Value.(*lruEntry).cp != cp {
		c.mu.Unlock()
		return
	}
	cp.bytes += extra
	delta := extra + c.evictLocked(extra)
	c.mu.Unlock()
	if c.onBytes != nil && delta != 0 {
		c.onBytes(delta)
	}
}

// evictLocked frees least-recently-used entries until bytes+incoming fits
// the budget, returning the (negative) byte delta of what was evicted. At
// least one entry is always retained so a single oversized checkpoint can
// still be queried.
func (c *lruCache) evictLocked(incoming int64) int64 {
	var delta int64
	for c.bytes+incoming > c.budget && c.order.Len() > 1 {
		el := c.order.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*lruEntry)
		c.order.Remove(el)
		delete(c.entries, ent.key)
		c.bytes -= ent.cp.bytes
		delta -= ent.cp.bytes
	}
	c.bytes += incoming
	return delta
}

// dropSegment removes every cached checkpoint belonging to a pruned
// segment.
func (c *lruCache) dropSegment(seg uint64) {
	c.mu.Lock()
	var delta int64
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*lruEntry)
		if ent.key.seg == seg {
			c.order.Remove(el)
			delete(c.entries, ent.key)
			c.bytes -= ent.cp.bytes
			delta -= ent.cp.bytes
		}
		el = next
	}
	c.mu.Unlock()
	if c.onBytes != nil && delta != 0 {
		c.onBytes(delta)
	}
}

// drop empties the cache (store close).
func (c *lruCache) drop() {
	c.mu.Lock()
	delta := -c.bytes
	c.bytes = 0
	c.order.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.mu.Unlock()
	if c.onBytes != nil && delta != 0 {
		c.onBytes(delta)
	}
}

func (c *lruCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
