package main

import (
	"io"
	"math"
	"testing"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
)

// small is a data set that builds in well under a second and whose
// insert pool outlasts the short runs below.
func small(t *testing.T) *dataSet {
	t.Helper()
	return makeData(200_000, 200_000, 7)
}

func countOps(w workload, d *dataSet, seed int64, worker, n int) (counts [numKinds]int64, sum uint64) {
	st := newStream(w, d, seed, worker, 2)
	for i := 0; i < n; i++ {
		o, ok := st.Next()
		if !ok {
			break
		}
		counts[o.kind]++
		sum = sum*31 + o.key*7 + uint64(o.n) + uint64(o.kind)
	}
	return counts, sum
}

// Under a fixed seed the operation stream, and so every per-type op
// count, repeats exactly; another seed gives another stream.
func TestStreamsRepeat(t *testing.T) {
	d := small(t)
	for _, w := range workloads {
		c1, s1 := countOps(w, d, 3, 1, 20_000)
		c2, s2 := countOps(w, d, 3, 1, 20_000)
		if c1 != c2 || s1 != s2 {
			t.Errorf("%s: seed 3 gave %v then %v", w.name, c1, c2)
		}
		if _, s3 := countOps(w, d, 4, 1, 20_000); s3 == s1 {
			t.Errorf("%s: seeds 3 and 4 gave the same stream", w.name)
		}
		t.Logf("%s: 20000 ops of worker 1, seed 3: %v", w.name, c1)
	}
}

// replayCounts runs n ops of one worker against a fresh store and
// returns the device counters the ops moved. The bulk load runs on one
// worker so record offsets, and with them line counts, are fixed.
func replayCounts(t *testing.T, w workload, d *dataSet, n int) (pmem.AccessStats, [numKinds]int64) {
	t.Helper()
	entry, _ := core.Lookup(indexName)
	st := viper.Open(pmem.NewRegion(64<<20, pmem.Optane()), entry.New(),
		viper.WithWorkers(1), viper.WithRetrainMode(viper.RetrainAsync))
	defer st.Close()
	if err := st.BulkPut(d.keys, d.base); err != nil {
		t.Fatal(err)
	}
	wk := newWorker(d, newStream(w, d, 5, 0, 1), storeExec{st})
	wk.start, wk.winLen, wk.wins = time.Now(), time.Hour, make([]window, 1)
	before := st.Region().AccessStats()
	for i := 0; i < n; i++ {
		o, _ := wk.st.Next()
		wk.do(o)
	}
	if wk.failed != 0 {
		t.Fatalf("%s: %d ops failed: %v", w.name, wk.failed, wk.firstErr)
	}
	a := st.Region().AccessStats()
	return pmem.AccessStats{
		LineReads: a.LineReads - before.LineReads, LineWrites: a.LineWrites - before.LineWrites,
		Flushes: a.Flushes - before.Flushes,
	}, wk.ops
}

// In a single-worker replay the device line reads, line writes and
// flushes repeat exactly, so a change may name them in a claim.
func TestReplayCountsRepeat(t *testing.T) {
	d := small(t)
	for _, w := range workloads {
		a1, o1 := replayCounts(t, w, d, 5_000)
		a2, o2 := replayCounts(t, w, d, 5_000)
		if a1 != a2 || o1 != o2 {
			t.Errorf("%s: counts differ between replays: %+v %v vs %+v %v", w.name, a1, o1, a2, o2)
		}
		t.Logf("%s: 5000 ops %v: line reads %d, line writes %d, flushes %d",
			w.name, o1, a1.LineReads, a1.LineWrites, a1.Flushes)
	}
}

func TestValidValue(t *testing.T) {
	d := small(t)
	k := d.keys[10]
	v := make([]byte, valueSize)
	stamp(v, k)
	switch {
	case !d.validValue(k, d.base, true):
		t.Error("bulk constant rejected for a loaded key")
	case d.validValue(k, d.base, false):
		t.Error("bulk constant accepted for a key that was never loaded")
	case !d.validValue(k, v, true):
		t.Error("key's own stamp rejected")
	case d.validValue(k+1, v, true):
		t.Error("another key's stamp accepted")
	case d.validValue(k, v[:valueSize-1], true):
		t.Error("short value accepted")
	}
	v[100] ^= 1
	if d.validValue(k, v, true) {
		t.Error("corrupted stamp accepted")
	}
}

func TestScanCheck(t *testing.T) {
	d := small(t)
	val := func(k uint64) []byte {
		v := make([]byte, valueSize)
		stamp(v, k)
		return v
	}
	// A range starting just below a loaded key: the model expects the
	// loaded keys from there on, in order.
	i := 100
	start := d.keys[i] - 1
	good := d.keys[i : i+5]
	cases := []struct {
		name  string
		keys  []uint64
		limit int
		ok    bool
	}{
		{"exact", good, 5, true},
		{"short", good[:4], 5, false},
		{"skips a loaded key", append([]uint64{good[0]}, good[2:]...), 4, false},
		{"duplicate", []uint64{good[0], good[0], good[1]}, 3, false},
		{"descending", []uint64{good[1], good[0]}, 2, false},
		{"starts before start", append([]uint64{start - 1}, good[:2]...), 3, false},
		{"too long", good, 4, false},
		{"unknown key", []uint64{good[0], good[0] + 1}, 2, d.isInsertKey(good[0] + 1)},
	}
	for _, c := range cases {
		var chk scanCheck
		chk.begin(d, start, c.limit)
		for _, k := range c.keys {
			chk.add(k, val(k))
		}
		if chk.ok() != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, chk.ok(), c.ok)
		}
	}
	// The range may end early only past the last loaded key.
	var chk scanCheck
	last := d.keys[len(d.keys)-1]
	chk.begin(d, last, 10)
	chk.add(last, d.base)
	if !chk.ok() {
		t.Error("range ending at the last loaded key rejected")
	}
}

// lying returns values that were never written for the key asked.
type lying struct{ storeExec }

func (l lying) get(key uint64) ([]byte, bool, error) { return l.storeExec.get(key + 1) }

func TestWrongValueFails(t *testing.T) {
	d := small(t)
	entry, _ := core.Lookup(indexName)
	st := viper.Open(pmem.NewRegion(64<<20, pmem.None()), entry.New())
	defer st.Close()
	if err := st.BulkPut(d.keys, d.base); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("store-point")
	wk := newWorker(d, newStream(w, d, 1, 0, 1), lying{storeExec{st}})
	wk.do(op{kind: opGet, key: d.keys[3]})
	if wk.failed != 1 || wk.firstErr == nil {
		t.Fatalf("a get answered with another key's value passed: failed=%d", wk.failed)
	}
}

// Every workload runs end to end on a small data set, untraced and
// traced, without a failed op, and reports every metric as a number.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := small(t)
	for _, w := range workloads {
		res, err := runTraced(w, d, 1, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: %d of %d ops failed", w.name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
		if res.Metrics["trace.overhead"].Value <= 0 {
			t.Errorf("%s: trace.overhead not measured", w.name)
		}
	}
	w, _ := lookupWorkload("ycsb-e")
	res, err := runTimed(w, d, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range endToEnd {
		if v := res.Metrics[def.name].Value; !(v > 0) {
			t.Errorf("ycsb-e: %s = %v, want > 0", def.name, v)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ycsb-b", "--trace", "2"},
		{"--workload", "ycsb-b", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
