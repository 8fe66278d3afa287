package adapt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// observeAll feeds the key n times, bypassing nothing: the 1-in-32
// sampling means n must be comfortably above 32 per intended sample.
func observeAll(h *HotKeys, key uint64, n int) {
	for i := 0; i < n; i++ {
		h.Observe(key)
	}
}

func TestSketchFindsHotKeysUnderZipf(t *testing.T) {
	h := NewHotKeys(64)
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.5, 1, 1<<20)
	// Zipf ranks mapped to distinct keys; 200k observations sample ~6k
	// sketch updates.
	for i := 0; i < 200_000; i++ {
		h.Observe(z.Uint64()*0x9E3779B97F4A7C15 + 1)
	}
	top := h.TopKeys(8)
	if len(top) != 8 {
		t.Fatalf("TopKeys(8) returned %d keys", len(top))
	}
	// Rank 0 scrambles to key 1 (0*golden+1); it carries ~45% of the
	// distribution's mass and must sit at the front of the ranking.
	if top[0] != 1 {
		t.Errorf("hottest key = %d, want 1 (zipf rank 0)", top[0])
	}
	if share := h.SkewShare(16); share < 0.4 {
		t.Errorf("SkewShare(16) = %.3f under zipf, want >= 0.4", share)
	}
}

func TestSketchUniformTrafficLowShare(t *testing.T) {
	h := NewHotKeys(64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200_000; i++ {
		h.Observe(rng.Uint64())
	}
	if share := h.SkewShare(16); share > 0.2 {
		t.Errorf("SkewShare(16) = %.3f under uniform traffic, want <= 0.2", share)
	}
}

func TestSketchDecayForgetsDeadPhase(t *testing.T) {
	h := NewHotKeys(64)
	observeAll(h, 42, 10_000)
	before := h.SkewShare(1)
	if before < 0.9 {
		t.Fatalf("single hot key share = %.3f, want ~1", before)
	}
	// A few half-lives later the old counts are gone and fresh traffic
	// dominates the ranking.
	for i := 0; i < 12; i++ {
		h.Decay()
	}
	observeAll(h, 99, 10_000)
	top := h.TopKeys(1)
	if len(top) != 1 || top[0] != 99 {
		t.Errorf("after decay+new phase, TopKeys(1) = %v, want [99]", top)
	}
}

func TestCacheLookupDisabledByDefault(t *testing.T) {
	h := NewHotKeys(8)
	h.Promote(1, 100)
	if _, ok := h.Lookup(1); ok {
		t.Fatal("Lookup hit while cache disabled")
	}
	h.SetEnabled(true)
	if off, ok := h.Lookup(1); !ok || off != 100 {
		t.Fatalf("Lookup after enable = (%d,%v), want (100,true)", off, ok)
	}
	h.SetEnabled(false)
	if _, ok := h.Lookup(1); ok {
		t.Fatal("Lookup hit after disable")
	}
}

func TestCachePromoteRefreshInvalidate(t *testing.T) {
	h := NewHotKeys(8)
	h.SetEnabled(true)

	h.Promote(7, 700)
	if off, ok := h.Lookup(7); !ok || off != 700 {
		t.Fatalf("after promote: (%d,%v), want (700,true)", off, ok)
	}

	// Write-through refresh replaces the offset in place.
	h.Refresh(7, 701)
	if off, ok := h.Lookup(7); !ok || off != 701 {
		t.Fatalf("after refresh: (%d,%v), want (701,true)", off, ok)
	}

	// Refresh of an uncached key is a no-op (admission stays with the
	// promoter).
	h.Refresh(1234, 1)
	if _, ok := h.Lookup(1234); ok {
		t.Fatal("Refresh admitted an uncached key")
	}

	h.Invalidate(7)
	if _, ok := h.Lookup(7); ok {
		t.Fatal("Lookup hit after Invalidate")
	}

	// Refresh after a single-key invalidation resurrects the entry: the
	// offset comes fresh from the write path, so it is current by
	// construction.
	h.Refresh(7, 702)
	if off, ok := h.Lookup(7); !ok || off != 702 {
		t.Fatalf("refresh after invalidate: (%d,%v), want (702,true)", off, ok)
	}

	st := h.Stats()
	if st.Promotions != 1 || st.Refreshes != 2 || st.Invalidations != 1 {
		t.Errorf("stats = %+v, want 1 promotion, 2 refreshes, 1 invalidation", st)
	}
}

func TestCacheGenerationInvalidatesWholesale(t *testing.T) {
	h := NewHotKeys(8)
	h.SetEnabled(true)
	h.Promote(1, 10)
	h.Promote(2, 20)
	h.InvalidateAll()
	if _, ok := h.Lookup(1); ok {
		t.Fatal("Lookup hit across a generation bump")
	}
	if _, ok := h.Lookup(2); ok {
		t.Fatal("Lookup hit across a generation bump")
	}
	// Re-promotion under the new generation serves again.
	h.Promote(1, 11)
	if off, ok := h.Lookup(1); !ok || off != 11 {
		t.Fatalf("re-promotion after bump: (%d,%v), want (11,true)", off, ok)
	}
	// Refresh also revalidates: its offset postdates the rewrite.
	h.InvalidateAll()
	h.Refresh(1, 12)
	if off, ok := h.Lookup(1); !ok || off != 12 {
		t.Fatalf("refresh after bump: (%d,%v), want (12,true)", off, ok)
	}
}

func TestCacheSlotCollisionTakeover(t *testing.T) {
	h := NewHotKeys(1) // single slot: every key collides
	h.SetEnabled(true)
	h.Promote(1, 10)
	h.Promote(2, 20)
	if _, ok := h.Lookup(1); ok {
		t.Fatal("evicted key still serving")
	}
	if off, ok := h.Lookup(2); !ok || off != 20 {
		t.Fatalf("takeover key = (%d,%v), want (20,true)", off, ok)
	}
	// Invalidate/Refresh of the evicted key must not disturb the
	// occupant.
	h.Invalidate(1)
	h.Refresh(1, 11)
	if off, ok := h.Lookup(2); !ok || off != 20 {
		t.Fatalf("occupant after evicted-key ops = (%d,%v), want (20,true)", off, ok)
	}
}

func TestNilHotKeysSafe(t *testing.T) {
	var h *HotKeys
	h.Observe(1)
	h.Promote(1, 1)
	h.Refresh(1, 1)
	h.Invalidate(1)
	h.InvalidateAll()
	h.SetEnabled(true)
	h.Decay()
	if _, ok := h.Lookup(1); ok {
		t.Fatal("nil Lookup hit")
	}
	if h.Enabled() || h.SkewShare(4) != 0 || h.TopKeys(4) != nil {
		t.Fatal("nil accessors returned non-zero state")
	}
	if h.Stats() != (CacheStats{}) {
		t.Fatal("nil Stats non-zero")
	}
}

// TestCacheConcurrentCoherence hammers one HotKeys from promoters,
// refreshers, invalidators and readers at once. Offsets are derived
// from an "index" array that writers keep current, so any seqlock tear
// or ordering bug shows up as a hit whose offset was never valid for
// that key — and the race detector checks the memory model.
func TestCacheConcurrentCoherence(t *testing.T) {
	const keys = 64
	h := NewHotKeys(32) // force collisions
	h.SetEnabled(true)

	// index[k] is the current offset of key k; offsets encode the key in
	// the high bits so a cross-key tear is detectable.
	var index [keys]atomic.Uint64
	enc := func(k, ver uint64) uint64 { return k<<32 | ver }
	// Seed every key's current offset before any goroutine starts: a
	// zero-valued slot would let the promoter publish offset 0 (key 0's
	// encoding) for a key the writer has not reached yet.
	for k := range index {
		index[k].Store(enc(uint64(k), 0))
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Single writer: bump versions, write-through refresh (the
	// single-writer contract Refresh documents).
	writers.Add(1)
	go func() {
		defer writers.Done()
		ver := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := ver % keys
			index[k].Store(enc(k, ver))
			h.Refresh(k, enc(k, ver))
			if ver%257 == 0 {
				h.Invalidate(k)
			}
			if ver%4099 == 0 {
				h.InvalidateAll()
			}
			ver++
		}
	}()

	// Promoter: publish keys at their current offsets, then re-check,
	// mirroring viper.Store.PromoteHot's publish -> re-probe -> fix.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(keys))
			off := index[k].Load()
			h.Promote(k, off)
			if index[k].Load() != off {
				h.Invalidate(k)
			}
		}
	}()

	// Readers: every hit must decode to its own key.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200_000; i++ {
				k := uint64(rng.Intn(keys))
				if off, ok := h.Lookup(k); ok {
					if off>>32 != k {
						t.Errorf("key %d served offset of key %d", k, off>>32)
						return
					}
				}
				h.Observe(k)
			}
		}(int64(r + 10))
	}

	// Readers run a fixed iteration budget; writers loop until stopped.
	readers.Wait()
	close(stop)
	writers.Wait()
}
