package viper

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"learnedpieces/internal/adapt"
	"learnedpieces/internal/btree"
	"learnedpieces/internal/pmem"
)

// The tests below pin the store's device-access shape on the Optane
// model through AccessStats deltas, never through timings: every record
// read and write is one access, and lines are charged once.

// lineSize is the simulated device's accounting granule (pmem's block).
const lineSize = 256

// lines is the number of device lines [off, off+n) touches.
func lines(off uint64, n int) int64 {
	return int64((off+uint64(n)-1)/lineSize - off/lineSize + 1)
}

// accessDelta runs fn and returns the device counters it moved.
func accessDelta(s *Store, fn func()) pmem.AccessStats {
	b := s.Region().AccessStats()
	fn()
	a := s.Region().AccessStats()
	return pmem.AccessStats{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Flushes: a.Flushes - b.Flushes,
		LineReads: a.LineReads - b.LineReads, LineWrites: a.LineWrites - b.LineWrites,
		ReadStallNs: a.ReadStallNs - b.ReadStallNs, WriteStallNs: a.WriteStallNs - b.WriteStallNs,
	}
}

func optaneStore(size int) *Store {
	return Open(pmem.NewRegion(size, pmem.Optane()), btree.New())
}

// offsetOf is the record offset the index holds for key.
func offsetOf(t *testing.T, s *Store, key uint64) uint64 {
	t.Helper()
	off, ok := s.Index().Get(key)
	if !ok {
		t.Fatalf("key %d not indexed", key)
	}
	return off
}

func randomValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// getChecked reads key, checks the value byte for byte, and returns the
// device counters the Get moved.
func getChecked(t *testing.T, s *Store, key uint64, want []byte) pmem.AccessStats {
	t.Helper()
	var got []byte
	var ok bool
	d := accessDelta(s, func() { got, ok = s.Get(key) })
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(%d) = %d bytes, ok=%v; want %d bytes back exactly", key, len(got), ok, len(want))
	}
	return d
}

func TestGetNominalRecordIsOneRead(t *testing.T) {
	s := optaneStore(8 << 20)
	rng := rand.New(rand.NewSource(1))
	// Several records so some straddle a line boundary and some do not.
	for k := uint64(1); k <= 8; k++ {
		v := randomValue(rng, DefaultValueSize)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		d := getChecked(t, s, k, v)
		if d.Reads != 1 {
			t.Fatalf("key %d: Get made %d reads, want 1", k, d.Reads)
		}
		if want := lines(offsetOf(t, s, k), recordHeader+DefaultValueSize); d.LineReads != want {
			t.Fatalf("key %d: Get charged %d lines, want the record's %d", k, d.LineReads, want)
		}
	}
}

func TestWritesAreOneAccessPerRecord(t *testing.T) {
	s := optaneStore(8 << 20)
	rng := rand.New(rand.NewSource(2))
	for k := uint64(1); k <= 8; k++ {
		v := randomValue(rng, DefaultValueSize)
		d := accessDelta(s, func() {
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
		})
		if d.Writes != 1 || d.Flushes != 1 {
			t.Fatalf("key %d: Put made %d writes, %d flushes; want 1, 1", k, d.Writes, d.Flushes)
		}
		if want := lines(offsetOf(t, s, k), recordHeader+len(v)); d.LineWrites != want {
			t.Fatalf("key %d: Put charged %d lines, want the record's %d", k, d.LineWrites, want)
		}
	}
	// A tombstone is a header-only record: still one write.
	d := accessDelta(s, func() {
		if ok, err := s.Delete(3); !ok || err != nil {
			t.Fatalf("Delete: %v %v", ok, err)
		}
	})
	if d.Writes != 1 {
		t.Fatalf("Delete made %d writes, want 1", d.Writes)
	}
	// Compact copies every live record with one read and one write each
	// (its header-only page scan adds reads, not writes).
	d = accessDelta(s, func() {
		if _, err := s.Compact(btree.New()); err != nil {
			t.Fatal(err)
		}
	})
	if d.Writes != int64(s.Len()) {
		t.Fatalf("Compact of %d live records made %d writes", s.Len(), d.Writes)
	}

	b := optaneStore(8 << 20)
	keys := []uint64{10, 20, 30, 40, 50}
	d = accessDelta(b, func() {
		if err := b.BulkPut(keys, nil); err != nil {
			t.Fatal(err)
		}
	})
	if d.Writes != int64(len(keys)) {
		t.Fatalf("BulkPut of %d keys made %d writes", len(keys), d.Writes)
	}
}

func TestOversizedValueReadsTailOnce(t *testing.T) {
	s := optaneStore(8 << 20)
	rng := rand.New(rand.NewSource(3))
	if err := s.Put(1, randomValue(rng, 37)); err != nil { // shift the next record off a line start
		t.Fatal(err)
	}
	v := randomValue(rng, 3*DefaultValueSize)
	if err := s.Put(2, v); err != nil {
		t.Fatal(err)
	}
	d := getChecked(t, s, 2, v)
	if d.Reads != 2 {
		t.Fatalf("oversized Get made %d reads, want 2 (nominal extent + tail)", d.Reads)
	}
	if want := lines(offsetOf(t, s, 2), recordHeader+len(v)); d.LineReads != want {
		t.Fatalf("oversized Get charged %d lines, want the record's %d (no line twice)", d.LineReads, want)
	}
	// The compaction copy reads it back exactly too.
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	getChecked(t, s, 2, v)
}

func TestShortValueReadsExactly(t *testing.T) {
	s := optaneStore(8 << 20)
	rng := rand.New(rand.NewSource(4))
	short := randomValue(rng, 50)
	next := randomValue(rng, DefaultValueSize)
	if err := s.Put(1, short); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, next); err != nil { // lies inside key 1's nominal extent
		t.Fatal(err)
	}
	if d := getChecked(t, s, 1, short); d.Reads != 1 {
		t.Fatalf("short Get made %d reads, want 1", d.Reads)
	}
}

func TestTombstoneMisses(t *testing.T) {
	s := optaneStore(8 << 20)
	if err := s.Put(7, value(7)); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Delete(7); !ok || err != nil {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("deleted key visible")
	}
	// An index entry lingering at a tombstone (a delta layer that has
	// not applied the delete yet) must resolve as a miss, in one read.
	off, err := s.appendRecord(8, nil, flagDeleted)
	if err != nil {
		t.Fatal(err)
	}
	var live bool
	d := accessDelta(s, func() { _, live = s.readRecord(uint64(off)) })
	if live || d.Reads != 1 {
		t.Fatalf("tombstone read: live=%v in %d reads, want a miss in 1", live, d.Reads)
	}
}

// A record whose nominal extent would run past the end of the region
// is read with the extent clamped at the region end.
func TestRecordAtRegionEndIsClamped(t *testing.T) {
	s := optaneStore(PageSize) // one page: the page end is the region end
	rng := rand.New(rand.NewSource(5))
	const nominal = recordHeader + DefaultValueSize
	fill := PageSize / nominal
	for k := 1; k <= fill; k++ {
		if err := s.Put(uint64(k), value(uint64(k))); err != nil {
			t.Fatal(err)
		}
	}
	// Two records fill the last rest-of-page exactly; both sit closer
	// than one nominal extent to the region end.
	rest := PageSize - fill*nominal
	short := randomValue(rng, 10)
	last := randomValue(rng, rest-2*recordHeader-len(short))
	if err := s.Put(1<<40, short); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1<<41, last); err != nil {
		t.Fatal(err)
	}
	if end := offsetOf(t, s, 1<<41) + uint64(recordHeader+len(last)); end != PageSize {
		t.Fatalf("last record ends at %d, want the region end %d", end, PageSize)
	}
	for key, v := range map[uint64][]byte{1 << 40: short, 1 << 41: last} {
		if d := getChecked(t, s, key, v); d.Reads != 1 {
			t.Fatalf("key %d at the region end: %d reads, want 1", key, d.Reads)
		}
	}
}

func TestShadowCacheHitIsOneRead(t *testing.T) {
	s := optaneStore(8 << 20)
	hk := adapt.NewHotKeys(64)
	hk.SetEnabled(true)
	s.SetHotKeys(hk)
	if err := s.Put(9, value(9)); err != nil {
		t.Fatal(err)
	}
	if n := s.PromoteHot([]uint64{9}); n != 1 {
		t.Fatalf("PromoteHot promoted %d keys, want 1", n)
	}
	hits := hk.Stats().Hits
	if d := getChecked(t, s, 9, value(9)); d.Reads != 1 {
		t.Fatalf("cached Get made %d reads, want 1", d.Reads)
	}
	if hk.Stats().Hits != hits+1 {
		t.Fatal("Get did not resolve through the shadow cache")
	}
}

// Readers Get the newest record of a page while a writer appends the
// slots right after it. The short values put the slots being written
// inside every reader's nominal-size view, so under -race this checks
// the region contract: a view may extend over a concurrent write, only
// the bytes actually parsed must not.
func TestGetNewestBesideConcurrentAppend(t *testing.T) {
	s := Open(pmem.NewRegion(8<<20, pmem.Optane()), shardedBTree([]uint64{1, 1 << 20}))
	val := func(k uint64) []byte { return []byte{byte(k), byte(k >> 8), 0xAB} }
	const n = 20000
	var newest atomic.Uint64
	if err := s.Put(1, val(1)); err != nil {
		t.Fatal(err)
	}
	newest.Store(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := newest.Load()
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, val(k)) {
					t.Errorf("newest key %d read back %v, %v", k, got, ok)
					return
				}
			}
		}()
	}
	for k := uint64(2); k <= n; k++ {
		if err := s.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
		newest.Store(k)
	}
	stop.Store(true)
	wg.Wait()
}
