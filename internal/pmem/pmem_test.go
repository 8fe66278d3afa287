package pmem

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestAllocAndRW(t *testing.T) {
	r := NewRegion(4096, None())
	off1, err := r.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := r.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off2 < off1+100 {
		t.Fatalf("overlapping allocations: %d, %d", off1, off2)
	}
	payload := []byte("hello pmem")
	r.Write(off1, payload)
	buf := make([]byte, len(payload))
	r.Read(off1, buf)
	if string(buf) != string(payload) {
		t.Fatalf("read back %q", buf)
	}
	if string(r.ReadNoCopy(off1, len(payload))) != string(payload) {
		t.Fatal("ReadNoCopy mismatch")
	}
}

func TestOutOfSpace(t *testing.T) {
	r := NewRegion(128, None())
	if _, err := r.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(100); err != ErrOutOfSpace {
		t.Fatalf("got %v, want ErrOutOfSpace", err)
	}
}

func TestStatsCount(t *testing.T) {
	r := NewRegion(1024, None())
	r.Write(0, []byte{1})
	r.Read(0, make([]byte, 1))
	r.Flush(0, 1)
	reads, writes, flushes := r.Stats()
	if reads != 1 || writes != 1 || flushes != 1 {
		t.Fatalf("stats %d/%d/%d", reads, writes, flushes)
	}
}

func TestLatencyInjection(t *testing.T) {
	r := NewRegion(1<<16, LatencyModel{ReadNs: 2000, WriteNs: 0})
	buf := make([]byte, 64)
	start := time.Now()
	for i := 0; i < 100; i++ {
		// Alternate blocks so the block buffer never hits.
		r.Read(int64(i%2)*4096, buf)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Microsecond {
		t.Fatalf("latency not injected: 100 reads took %v, want >= 200us nominal", elapsed)
	}
}

func TestBlockBufferHitIsFree(t *testing.T) {
	r := NewRegion(1<<16, LatencyModel{ReadNs: 50_000, WriteNs: 0})
	buf := make([]byte, 8)
	r.Read(0, buf) // charge once
	start := time.Now()
	for i := 0; i < 100; i++ {
		r.Read(int64(i*8%blockSize), buf) // same block every time
	}
	if elapsed := time.Since(start); elapsed > 2*time.Millisecond {
		t.Fatalf("block-buffer hits were charged: 100 same-block reads took %v", elapsed)
	}
	// Crossing to another block charges again.
	start = time.Now()
	r.Read(blockSize*8, buf)
	if elapsed := time.Since(start); elapsed < 40*time.Microsecond {
		t.Fatalf("block miss not charged: took %v", elapsed)
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := NewRegion(1024, None())
	r.Write(10, []byte("persisted"))
	snap := r.Snapshot()
	r.Write(10, []byte("scribbled"))
	r.Restore(snap)
	if got := string(r.ReadNoCopy(10, 9)); got != "persisted" {
		t.Fatalf("after restore: %q", got)
	}
}

func TestBlocksRounding(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 1, 256: 1, 257: 2, 512: 2, 513: 3}
	for n, want := range cases {
		if got := blocks(n); got != want {
			t.Errorf("blocks(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestConcurrentDisjointAccess pins down the documented concurrency
// contract: concurrent Write/ReadNoCopy/Read on non-overlapping ranges,
// interleaved with Alloc and counter reads, must be race-free (run under
// -race in CI). This is the property the store's parallel recovery,
// compaction and bulk-load paths rely on.
func TestConcurrentDisjointAccess(t *testing.T) {
	r := NewRegion(1<<20, Optane())
	const workers = 8
	const slot = 4096
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * slot)
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				buf[0] = byte(w)
				r.Write(base, buf)
				r.Flush(base, len(buf))
				got := r.ReadNoCopy(base, 64)
				if got[0] != byte(w) {
					t.Errorf("worker %d read back %d", w, got[0])
					return
				}
				r.Read(base+128, buf)
				if _, err := r.Alloc(32); err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	reads, writes, flushes := r.Stats()
	if reads == 0 || writes == 0 || flushes == 0 {
		t.Fatalf("counters not advancing: %d %d %d", reads, writes, flushes)
	}
}

// WriteParts lands both parts back to back as one write, charged once
// over the combined extent.
func TestWritePartsCombined(t *testing.T) {
	r := NewRegion(4096, Optane())
	head, tail := []byte("header:"), bytes.Repeat([]byte{'v'}, 300)
	const off = 250 // straddles lines 0..2
	before := r.AccessStats()
	r.WriteParts(off, head, tail)
	a := r.AccessStats()
	if got := string(r.ReadNoCopy(off, len(head)+len(tail))); got != string(head)+string(tail) {
		t.Fatalf("combined write read back %q", got)
	}
	if w := a.Writes - before.Writes; w != 1 {
		t.Fatalf("WriteParts counted %d writes, want 1", w)
	}
	// [250, 557) touches lines 0, 1 and 2.
	if l := a.LineWrites - before.LineWrites; l != 3 {
		t.Fatalf("WriteParts charged %d lines, want 3", l)
	}
	if s := a.WriteStallNs - before.WriteStallNs; s != 3*Optane().WriteNs {
		t.Fatalf("WriteParts stalled %d ns, want one charge of 3 lines", s)
	}
	// An empty tail writes just the head.
	r.WriteParts(1000, head, nil)
	if got := string(r.ReadNoCopy(1000, len(head))); got != string(head) {
		t.Fatalf("head-only write read back %q", got)
	}
}

// ReadNoCopyTail widens an earlier view as one more read and charges
// only the lines the earlier access did not already cover.
func TestReadNoCopyTailChargesOnce(t *testing.T) {
	r := NewRegion(4096, Optane())
	want := make([]byte, 700)
	for i := range want {
		want[i] = byte(i)
	}
	const off = 100
	r.Write(off, want)
	cases := []struct {
		loaded, n int
		lines     int64 // lines charged by the tail alone
	}{
		{213, 700, 2}, // first view ends in line 1; tail is lines 2..3
		{156, 700, 3}, // first view ends exactly at line 0's end; tail is lines 1..3
		{213, 400, 0}, // the widened view still ends in line 1
	}
	for _, c := range cases {
		r.ReadNoCopy(off, c.loaded)
		before := r.AccessStats()
		got := r.ReadNoCopyTail(off, c.loaded, c.n)
		a := r.AccessStats()
		if !bytes.Equal(got, want[:c.n]) {
			t.Fatalf("loaded %d, n %d: widened view differs", c.loaded, c.n)
		}
		if rd := a.Reads - before.Reads; rd != 1 {
			t.Fatalf("loaded %d, n %d: %d reads, want 1", c.loaded, c.n, rd)
		}
		if l := a.LineReads - before.LineReads; l != c.lines {
			t.Fatalf("loaded %d, n %d: tail charged %d lines, want %d", c.loaded, c.n, l, c.lines)
		}
	}
}
