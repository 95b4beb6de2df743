package server

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU map from canonical request keys to
// immutable response payloads. Discovery over a fixed graph is a pure
// function of the normalized request, so repeated identical queries —
// the dominant pattern in dashboard and A/B traffic — are answered
// without touching the search at all.
//
// Entries are epoch-tagged: a graph mutation advances the epoch and
// orphans every entry of the old epoch, which can never be served
// again (cache keys embed the epoch). EvictBefore drops them eagerly
// on epoch advance instead of letting dead entries squat in the LRU
// until capacity pressure ages them out.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
	// epochKeys tracks the keys inserted per epoch so EvictBefore is
	// O(evicted), not O(cache size).
	epochKeys      map[uint64][]string
	hits           uint64
	misses         uint64
	epochEvictions uint64
}

type lruEntry struct {
	key   string
	epoch uint64
	val   *DiscoverResponse
}

// epochKeysSweep is how many times the capacity one epoch's key list
// may grow to before Put sweeps it of LRU-evicted keys.
const epochKeysSweep = 2

// newLRU creates a cache holding up to capacity entries. A capacity
// < 1 disables caching: Get always misses and Put is a no-op.
func newLRU(capacity int) *lruCache {
	return &lruCache{
		capacity:  capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		epochKeys: make(map[uint64][]string),
	}
}

// Enabled reports whether the cache stores anything at all.
func (c *lruCache) Enabled() bool { return c.capacity >= 1 }

// Get returns the cached response for key, promoting it to
// most-recently-used. The returned value is shared and must be treated
// as immutable by callers.
func (c *lruCache) Get(key string) (*DiscoverResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores val, computed at the given graph epoch, under key,
// evicting the least-recently-used entry when the cache is full.
func (c *lruCache) Put(key string, epoch uint64, val *DiscoverResponse) {
	if c.capacity < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, epoch: epoch, val: val})
	c.epochKeys[epoch] = append(c.epochKeys[epoch], key)
	// LRU evictions leave their key behind in epochKeys (removing it
	// eagerly would be a linear scan per eviction); compact the list
	// once it clearly outgrows the live set, so a mutation-free epoch
	// with heavy query churn cannot grow it without bound.
	if keys := c.epochKeys[epoch]; len(keys) >= epochKeysSweep*c.capacity {
		live := keys[:0]
		for _, k := range keys {
			if _, ok := c.items[k]; ok {
				live = append(live, k)
			}
		}
		c.epochKeys[epoch] = live
	}
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// EvictBefore drops every entry computed at an epoch below cur — dead
// results a mutation just orphaned — and returns how many it removed.
// Called on each epoch advance; cost is proportional to the entries
// actually dropped.
func (c *lruCache) EvictBefore(cur uint64) int {
	if c.capacity < 1 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := 0
	for epoch, keys := range c.epochKeys {
		if epoch >= cur {
			continue
		}
		for _, key := range keys {
			el, ok := c.items[key]
			if !ok || el.Value.(*lruEntry).epoch != epoch {
				continue // already LRU-evicted (or key reused — impossible, keys embed the epoch)
			}
			c.ll.Remove(el)
			delete(c.items, key)
			evicted++
		}
		delete(c.epochKeys, epoch)
	}
	c.epochEvictions += uint64(evicted)
	return evicted
}

// CacheStats is the cache section of the /stats payload.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
	// EpochEvictions counts entries dropped eagerly because a mutation
	// advanced the epoch past them (capacity evictions not included).
	EpochEvictions uint64  `json:"evictions_epoch"`
	Capacity       int     `json:"capacity"`
	HitRate        float64 `json:"hit_rate"`
}

// Stats reports hit/miss counters and occupancy.
func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Size:           c.ll.Len(),
		EpochEvictions: c.epochEvictions,
		Capacity:       c.capacity,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}
