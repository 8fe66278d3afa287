package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/viper"
)

// Data-set shape. The key set is fixed (datasetSeed) so that every seed
// measures the same store; --seed drives the operation streams only.
const (
	loadKeys    = 1_000_000 // bulk-loaded before every run
	insertKeys  = 1_000_000 // pool that inserts draw from
	datasetSeed = 20230403
	valueSize   = viper.DefaultValueSize
	maxScanLen  = 100
	// zipfS is Go's Zipf exponent closest to YCSB's theta 0.99 (Go
	// requires s > 1).
	zipfS = 1.01
)

type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opInsert
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "update", "insert", "scan"}

func (k opKind) isWrite() bool { return k == opUpdate || k == opInsert }

// workload is one traffic mix; README.md says why each exists. The
// fractions are cumulative thresholds over one uniform draw per op, in
// the order get, update, insert, scan.
type workload struct {
	name string
	// wire: the load goes through vipersrv's server over loopback TCP;
	// otherwise the workers call the store in-process.
	wire                      bool
	get, update, insert, scan float64
	// zipf picks keys (and scan starts) from a scrambled zipf over the
	// loaded keys; otherwise uniformly.
	zipf bool
}

var workloads = []workload{
	{name: "ycsb-b", wire: true, get: 0.95, update: 0.05, zipf: true},
	{name: "ycsb-e", wire: true, scan: 0.95, insert: 0.05, zipf: true},
	{name: "insert-heavy", wire: true, get: 0.5, insert: 0.5},
	{name: "store-point", get: 0.95, update: 0.05},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataSet is the store's initial content plus the pool inserts draw from.
type dataSet struct {
	keys    []uint64 // bulk-loaded keys, sorted
	inserts []uint64 // insert pool, sorted (membership checks)
	order   []uint64 // insert pool in the seed's shuffled order
	base    []byte   // the BulkPut constant value
}

// makeData splits nLoad+nInsert osm-like keys with dataset.Split, so the
// inserts land throughout the loaded key range.
func makeData(nLoad, nInsert int, seed int64) *dataSet {
	all := dataset.Generate(dataset.OSMLike, nLoad+nInsert, datasetSeed)
	load, ins := dataset.Split(all, nInsert)
	base := make([]byte, valueSize)
	for i := range base {
		base[i] = byte(0xA5 ^ i)
	}
	// All-ones in the key slot: no stamped value can equal the constant,
	// because keys never reach MaxUint64.
	binary.LittleEndian.PutUint64(base, ^uint64(0))
	return &dataSet{keys: load, inserts: ins, order: dataset.Shuffled(ins, seed), base: base}
}

// stamp fills buf (valueSize bytes) with the value the benchmark writes
// for key: the key itself, then filler derived from it.
func stamp(buf []byte, key uint64) {
	binary.LittleEndian.PutUint64(buf, key)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(key>>(8*(i&7))) ^ byte(i)
	}
}

// validValue reports whether v is a value the benchmark wrote for key:
// the bulk constant (only for loaded keys) or key's stamp.
func (d *dataSet) validValue(key uint64, v []byte, loaded bool) bool {
	if len(v) != valueSize {
		return false
	}
	if loaded && bytes.Equal(v, d.base) {
		return true
	}
	if binary.LittleEndian.Uint64(v) != key {
		return false
	}
	for i := 8; i < len(v); i++ {
		if v[i] != byte(key>>(8*(i&7)))^byte(i) {
			return false
		}
	}
	return true
}

func (d *dataSet) isInsertKey(key uint64) bool {
	i := sort.Search(len(d.inserts), func(i int) bool { return d.inserts[i] >= key })
	return i < len(d.inserts) && d.inserts[i] == key
}

// op is one generated operation. n is the scan length.
type op struct {
	kind opKind
	key  uint64
	n    int
}

// stream is one worker's deterministic operation sequence: the same
// (workload, seed, worker) always yields the same ops in the same order.
type stream struct {
	w    workload
	d    *dataSet
	rng  *rand.Rand
	zipf *rand.Zipf
	ins  []uint64 // this worker's share of the insert pool, in order
	next int
}

func newStream(w workload, d *dataSet, seed int64, worker, workers int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919))
	s := &stream{w: w, d: d, rng: rng}
	if w.zipf {
		s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(d.keys)-1))
	}
	for i := worker; i < len(d.order); i += workers {
		s.ins = append(s.ins, d.order[i])
	}
	return s
}

// pick draws a loaded key. Zipf ranks are scrambled (multiplicative
// hash) so the hot keys spread over the key space, as in YCSB.
func (s *stream) pick() uint64 {
	n := uint64(len(s.d.keys))
	if s.zipf != nil {
		return s.d.keys[(s.zipf.Uint64()*0x9E3779B97F4A7C15)%n]
	}
	return s.d.keys[s.rng.Uint64()%n]
}

// Next returns the next op; ok is false once the worker's insert pool
// is used up (the stream ends there rather than repeating keys).
func (s *stream) Next() (o op, ok bool) {
	p := s.rng.Float64()
	switch {
	case p < s.w.get:
		return op{kind: opGet, key: s.pick()}, true
	case p < s.w.get+s.w.update:
		return op{kind: opUpdate, key: s.pick()}, true
	case p < s.w.get+s.w.update+s.w.insert:
		if s.next == len(s.ins) {
			return op{}, false
		}
		s.next++
		return op{kind: opInsert, key: s.ins[s.next-1]}, true
	default:
		return op{kind: opScan, key: s.pick(), n: 1 + s.rng.Intn(maxScanLen)}, true
	}
}

// scanCheck verifies one range result against the benchmark's model of
// live keys: strictly ascending from start, every value provably written
// for its key, no loaded key skipped (loaded keys are never deleted), and
// exactly limit entries unless the range ran past the last loaded key.
// Inserted keys are accepted wherever they fall; they are checked for
// membership in the insert pool and for their stamp.
type scanCheck struct {
	d     *dataSet
	start uint64
	limit int
	j     int // next loaded key the range must reach
	n     int
	last  uint64
	bad   bool
}

func (c *scanCheck) begin(d *dataSet, start uint64, limit int) {
	*c = scanCheck{d: d, start: start, limit: limit}
	c.j = sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= start })
}

func (c *scanCheck) add(key uint64, val []byte) {
	switch {
	case c.n > 0 && key <= c.last, c.n == 0 && key < c.start:
		c.bad = true
	case c.j < len(c.d.keys) && c.d.keys[c.j] == key:
		c.bad = c.bad || !c.d.validValue(key, val, true)
		c.j++
	case c.j < len(c.d.keys) && c.d.keys[c.j] < key:
		c.bad = true // skipped a live loaded key
	default:
		c.bad = c.bad || !c.d.isInsertKey(key) || !c.d.validValue(key, val, false)
	}
	c.n++
	c.last = key
}

// ok closes the check.
func (c *scanCheck) ok() bool {
	if c.bad || c.n > c.limit {
		return false
	}
	return c.n == c.limit || c.j == len(c.d.keys)
}
