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

// ColdCheckpoint is one checkpoint served from the cold tier, as far as an
// interval query reads it: its coverage (PrevFreeze, FreezeTime], its window
// configuration and its Algorithm-3 index, decoded as the record holds it
// (or, for a version-1 record, built once from the cells it lists). The
// queue monitors are never decoded; see DecodeRecord for the whole record.
// It is immutable once built, so the LRU hands out the resident entry
// itself.
type ColdCheckpoint struct {
	freezeTime uint64
	prevFreeze uint64
	cfg        timewindow.Config
	filtered   *timewindow.Filtered
}

// Coverage returns the checkpoint's coverage (prevFreeze, freezeTime]. With
// Filtered it makes a ColdCheckpoint a timewindow.Covered.
func (c *ColdCheckpoint) Coverage() (prevFreeze, freezeTime uint64) {
	return c.prevFreeze, c.freezeTime
}

// Config returns the checkpoint's time-window configuration.
func (c *ColdCheckpoint) Config() timewindow.Config { return c.cfg }

// Filtered returns the checkpoint's filtered, indexed time windows.
func (c *ColdCheckpoint) Filtered() *timewindow.Filtered { return c.filtered }

// memBytes is what an entry is charged against the cache budget: a fixed 64
// for the entry and its bookkeeping, plus the index. An entry is immutable,
// so its charge never changes after insert.
func (c *ColdCheckpoint) memBytes() int64 { return 64 + c.filtered.MemBytes() }

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
	cp  *ColdCheckpoint
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
func (c *lruCache) get(key cacheKey) (*ColdCheckpoint, bool) {
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
func (c *lruCache) put(key cacheKey, cp *ColdCheckpoint) *ColdCheckpoint {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		existing := el.Value.(*lruEntry).cp
		c.mu.Unlock()
		return existing
	}
	el := c.order.PushFront(&lruEntry{key: key, cp: cp})
	c.entries[key] = el
	delta := cp.memBytes() + c.evictLocked(cp.memBytes())
	c.mu.Unlock()
	if c.onBytes != nil && delta != 0 {
		c.onBytes(delta)
	}
	return cp
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
		c.bytes -= ent.cp.memBytes()
		delta -= ent.cp.memBytes()
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
			c.bytes -= ent.cp.memBytes()
			delta -= ent.cp.memBytes()
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
