package server

import (
	"fmt"
	"testing"
)

func resp(tag string) *DiscoverResponse {
	return &DiscoverResponse{Method: tag}
}

func TestLRUBasic(t *testing.T) {
	c := newLRU(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 0, resp("a"))
	got, ok := c.Get("a")
	if !ok || got.Method != "a" {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.Put("a", 0, resp("a"))
	c.Put("b", 0, resp("b"))
	c.Get("a") // promote a; b is now LRU
	c.Put("c", 0, resp("c"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("%s should have survived", key)
		}
	}
	if s := c.Stats(); s.Size != 2 {
		t.Errorf("size = %d, want 2", s.Size)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRU(2)
	c.Put("a", 0, resp("old"))
	c.Put("a", 0, resp("new"))
	got, ok := c.Get("a")
	if !ok || got.Method != "new" {
		t.Fatalf("Get(a) = %v, %v; want updated value", got, ok)
	}
	if s := c.Stats(); s.Size != 1 {
		t.Errorf("size = %d, want 1", s.Size)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(0)
	c.Put("a", 0, resp("a"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if s := c.Stats(); s.Size != 0 || s.Capacity != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUChurn(t *testing.T) {
	c := newLRU(8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), 0, resp("x"))
	}
	s := c.Stats()
	if s.Size != 8 {
		t.Fatalf("size = %d, want 8", s.Size)
	}
	// Only the 8 most recent survive.
	for i := 92; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d missing", i)
		}
	}
}

// TestLRUEpochKeyCompaction exercises the epochKeys maintenance branch
// directly: LRU evictions leave dead keys behind in the per-epoch key
// list, and once the list reaches 2× capacity within a single epoch it
// must be compacted down to the live entries — otherwise a
// mutation-free epoch with heavy query churn grows it without bound.
func TestLRUEpochKeyCompaction(t *testing.T) {
	const capacity = 8
	c := newLRU(capacity)
	// 10× capacity inserts in one epoch: all but the last 8 are
	// LRU-evicted, and the key list crosses the 2×-capacity compaction
	// threshold repeatedly.
	const inserts = 10 * capacity
	for i := 0; i < inserts; i++ {
		c.Put(fmt.Sprintf("e0|k%d", i), 0, resp("x"))
	}
	c.mu.Lock()
	keyLen := len(c.epochKeys[0])
	c.mu.Unlock()
	// The list may hold up to 2×capacity−1 entries (live set plus dead
	// keys accumulated since the last compaction) but must never track
	// all 80 inserts.
	if keyLen >= 2*capacity {
		t.Fatalf("epochKeys holds %d keys after %d single-epoch inserts, want < %d (compacted)",
			keyLen, inserts, 2*capacity)
	}
	if s := c.Stats(); s.Size != capacity {
		t.Fatalf("size = %d, want %d", s.Size, capacity)
	}

	// EvictBefore must still be exact after compaction: advancing the
	// epoch drops precisely the surviving entries of epoch 0.
	if evicted := c.EvictBefore(1); evicted != capacity {
		t.Fatalf("EvictBefore(1) evicted %d, want the %d live entries", evicted, capacity)
	}
	for i := inserts - capacity; i < inserts; i++ {
		if _, ok := c.Get(fmt.Sprintf("e0|k%d", i)); ok {
			t.Errorf("e0|k%d survived EvictBefore", i)
		}
	}
	if s := c.Stats(); s.Size != 0 || s.EpochEvictions != capacity {
		t.Fatalf("post-evict stats = %+v, want size 0, %d epoch evictions", s, capacity)
	}
	c.mu.Lock()
	rows := len(c.epochKeys)
	c.mu.Unlock()
	if rows != 0 {
		t.Fatalf("epochKeys still tracks %d epochs after EvictBefore", rows)
	}
}
