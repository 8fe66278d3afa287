package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

// counters is everything the traced run diffs around its timed phase.
type counters struct {
	snap             telemetry.Snapshot
	dev              pmem.AccessStats
	probes, searches int64
	retrains, retrNs int64
	gcs              uint32
	gcPauseNs        uint64
}

func takeCounters(sys *system, sink *telemetry.Sink) counters {
	c := counters{snap: sink.Snapshot(), dev: sys.store.Region().AccessStats()}
	for _, k := range c.snap.Search {
		c.probes += k.Probes
		c.searches += k.Searches
	}
	c.retrains, c.retrNs, _ = index.RetrainStatsOf(sys.store.Index())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcs, c.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	return c
}

// runTraced measures the per-layer metrics. It first runs the workload
// untraced for half the time as the reference for trace.overhead, then
// on a fresh system with a telemetry.Sink attached for the other half,
// taking every counter as a delta around that phase. Layer timings come
// from replaying the phase's own operations, one layer at a time, on the
// quiesced system afterwards.
func runTraced(w workload, d *dataSet, seed int64, dur time.Duration) (*result, error) {
	half := dur / 2
	ref, err := measure(w, d, seed, half, 1, nil, nil)
	if err != nil {
		return nil, err
	}

	sink := telemetry.New()
	var (
		before  counters
		lm      = make(map[string]float64)
		hookErr error
	)
	tr, err := measure(w, d, seed, half, 1, sink, func(sys *system, p *phaseResult) {
		if p == nil {
			before = takeCounters(sys, sink)
			return
		}
		hookErr = layerMetrics(lm, w, d, seed, sys, p, before, takeCounters(sys, sink))
	})
	if err == nil {
		err = hookErr
	}
	if err != nil {
		return nil, err
	}
	lm["trace.overhead"] = ratio(tr.phase.kops(), ref.phase.kops())

	res := &result{Attempted: ref.attempted + tr.attempted, Failed: ref.failed + tr.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills lm from the traced phase p and the counter deltas
// around it, then replays the phase's operations layer by layer.
func layerMetrics(lm map[string]float64, w workload, d *dataSet, seed int64, sys *system, p *phaseResult, b, a counters) error {
	gets := float64(p.ops[opGet])
	puts := float64(p.ops[opUpdate] + p.ops[opInsert])
	scans := float64(p.ops[opScan])
	ops := float64(p.total())

	sv, bs := a.snap.Server, b.snap.Server
	if w.wire {
		lm["wire.bytes_per_op"] = ratio(float64(sv.BytesIn+sv.BytesOut-bs.BytesIn-bs.BytesOut), ops)
		batches := float64(sv.CoalesceBatches - bs.CoalesceBatches)
		coalesced := float64(sv.CoalescedGets - bs.CoalescedGets)
		lm["server.coalesce_batch_mean"] = ratio(coalesced, batches)
		lm["server.coalesce_batch_p99"] = float64(sv.BatchP99)
		lm["server.coalesced_get_frac"] = ratio(coalesced, gets)
		lm["server.flush_timer_frac"] = ratio(float64(sv.FlushTimer-bs.FlushTimer), batches)
		rej := float64(sv.Rejected - bs.Rejected)
		lm["server.rejected_frac"] = ratio(rej, rej+float64(sv.Accepted-bs.Accepted))
	}

	st, ss := a.snap.Store, b.snap.Store
	sb := float64(st.ScanBatches - ss.ScanBatches)
	entries := float64(st.ScanEntries - ss.ScanEntries)
	lm["viper.range_entries_per_batch"] = ratio(entries, sb)
	lm["viper.range_presorted_frac"] = ratio(float64(st.ScanPresorted-ss.ScanPresorted), sb)
	lm["viper.range_pin_yields_per_scan"] = ratio(float64(st.ScanPinYields-ss.ScanPinYields), scans)
	lm["viper.page_rollovers_per_kput"] = ratio(1e3*float64(st.PageRollovers-ss.PageRollovers), puts)

	lm["search.probes_per_search"] = ratio(float64(a.probes-b.probes), float64(a.searches-b.searches))

	idx := sys.store.Index()
	if sz, ok := index.SizesOf(idx); ok {
		lm["index.bytes_per_key"] = ratio(float64(sz.Total()), float64(idx.Len()))
	}
	lm["index.avg_depth"], _ = index.DepthOf(idx)
	lm["index.retrain_count"] = float64(a.retrains - b.retrains)
	lm["index.retrain_ms"] = float64(a.retrNs-b.retrNs) / 1e6

	rt, rb := a.snap.Retrain, b.snap.Retrain
	sub := float64(rt.Submitted - rb.Submitted)
	lm["retrain.inline_frac"] = ratio(float64(rt.Inline-rb.Inline), sub)
	lm["retrain.coalesced_frac"] = ratio(float64(rt.Coalesced-rb.Coalesced), sub)
	lm["retrain.fg_ms"] = float64(rt.ForegroundNs-rb.ForegroundNs) / 1e6
	lm["retrain.bg_ms"] = float64(rt.BackgroundNs-rb.BackgroundNs) / 1e6
	lm["retrain.queue_depth_end"] = float64(rt.QueueDepth)

	ep, eb := a.snap.Epoch, b.snap.Epoch
	lm["epoch.retired_per_kop"] = ratio(1e3*float64(ep.Retired-eb.Retired), ops)
	lm["epoch.pending_end"] = float64(ep.Pending)
	lm["epoch.read_retry_rate"] = ratio(float64(ep.ReadRetries-eb.ReadRetries), float64(ep.ReadAttempts-eb.ReadAttempts))

	dv, db := a.dev, b.dev
	lm["pmem.read_lines_per_get"] = ratio(float64(dv.LineReads-db.LineReads), gets)
	lm["pmem.read_stall_ns_per_get"] = ratio(float64(dv.ReadStallNs-db.ReadStallNs), gets)
	lm["pmem.read_lines_per_entry"] = ratio(float64(dv.LineReads-db.LineReads), entries)
	lm["pmem.write_lines_per_put"] = ratio(float64(dv.LineWrites-db.LineWrites), puts)
	lm["pmem.write_stall_ns_per_put"] = ratio(float64(dv.WriteStallNs-db.WriteStallNs), puts)
	lm["pmem.flushes_per_put"] = ratio(float64(dv.Flushes-db.Flushes), puts)

	lm["go.gc_cycles"] = float64(a.gcs - b.gcs)
	lm["go.gc_pause_ms"] = float64(a.gcPauseNs-b.gcPauseNs) / 1e6

	return replayLayers(lm, w, d, seed, sys, p)
}

// replayOps is how many of the phase's operations each layer replay
// re-issues.
const replayOps = 20_000

// sampleOps regenerates the first replayOps operations of worker 0's
// stream, which the traced run has already executed.
func sampleOps(w workload, d *dataSet, seed int64) []op {
	st := newStream(w, d, seed, 0, numWorkers())
	out := make([]op, 0, replayOps)
	for len(out) < replayOps {
		o, ok := st.Next()
		if !ok {
			break
		}
		out = append(out, o)
	}
	return out
}

// replayLayers times calls into each layer's public functions, one layer
// at a time, on the operations the phase issued.
func replayLayers(lm map[string]float64, w workload, d *dataSet, seed int64, sys *system, p *phaseResult) error {
	sample := sampleOps(w, d, seed)
	store := sys.store
	val := make([]byte, valueSize)

	// viper: the store's own latency per op, exact percentiles.
	var get, put, rng samples
	var ents []entry
	ex := storeExec{store}
	for _, o := range sample {
		t0 := time.Now()
		switch o.kind {
		case opGet:
			store.Get(o.key)
			get.add(time.Since(t0).Nanoseconds())
		case opUpdate, opInsert:
			stamp(val, o.key)
			t0 = time.Now()
			if err := store.Put(o.key, val); err != nil {
				return fmt.Errorf("replayed put %d: %w", o.key, err)
			}
			put.add(time.Since(t0).Nanoseconds())
		case opScan:
			var err error
			if ents, err = ex.scan(o.key, o.n, ents[:0]); err != nil {
				return fmt.Errorf("replayed scan %d: %w", o.key, err)
			}
			rng.add(time.Since(t0).Nanoseconds())
		}
	}
	lm["viper.get_p50_ns"], _ = get.percentile(50)
	lm["viper.get_p99_ns"], _ = get.percentile(99)
	lm["viper.put_p50_ns"], _ = put.percentile(50)
	lm["viper.put_p99_ns"], _ = put.percentile(99)
	lm["viper.range_p50_ns"], _ = rng.percentile(50)

	if w.wire {
		// The client-side read p50 less the store's own: what network,
		// server and wire add to a read.
		storeRead := lm["viper.get_p50_ns"]
		if p.ops[opGet] == 0 {
			storeRead = lm["viper.range_p50_ns"]
		}
		lm["server.rtt_self_us"] = p.readUs(50) - storeRead/1e3
		if err := replayWire(lm, store, sample); err != nil {
			return err
		}
	}

	// index: point lookups of the read keys, and cursor walks of the scans.
	idx := store.Index()
	var reads []uint64
	for _, o := range sample {
		if !o.kind.isWrite() {
			reads = append(reads, o.key)
		}
	}
	if len(reads) > 0 {
		offs := make([]uint64, len(reads))
		t0 := time.Now()
		for i, k := range reads {
			offs[i], _ = idx.Get(k)
		}
		lm["index.get_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(reads))
		lm["index.share_of_get"] = ratio(lm["index.get_ns"], lm["viper.get_p50_ns"])
		replayDevice(lm, store.Region(), offs)
	}
	if r, ok := idx.(index.Ranger); ok && p.ops[opScan] > 0 {
		keys, vals := make([]uint64, maxScanLen), make([]uint64, maxScanLen)
		var n int
		t0 := time.Now()
		for _, o := range sample {
			if o.kind != opScan {
				continue
			}
			c := r.Range(o.key)
			for got := 0; got < o.n; {
				m := c.Next(keys[:o.n-got], vals[:o.n-got])
				if m == 0 {
					break
				}
				got += m
				n += m
			}
			c.Close()
		}
		lm["index.range_ns_per_entry"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
	}
	return nil
}

// replayDevice re-reads the records the index resolved (header, then
// value, as Store.Get does) and sets the time the spin really took
// against the stall the latency model charged for the same reads.
func replayDevice(lm map[string]float64, region *pmem.Region, offs []uint64) {
	b := region.AccessStats()
	t0 := time.Now()
	for _, off := range offs {
		hdr := region.ReadNoCopy(int64(off), recordHeader)
		region.ReadNoCopy(int64(off)+recordHeader, int(binary.LittleEndian.Uint32(hdr[8:12])))
	}
	spun := float64(time.Since(t0).Nanoseconds())
	a := region.AccessStats()
	lm["pmem.read_spun_ns_per_get"] = spun / float64(len(offs))
	lm["pmem.spin_overrun"] = ratio(spun, float64(a.ReadStallNs-b.ReadStallNs))
}

// recordHeader is the store's record header: key(8) + valueLen(4) +
// flags(1).
const recordHeader = 13

// replayWire encodes and decodes the sample's request and response
// frames and sets the mean cost per frame of each direction.
func replayWire(lm map[string]float64, store *viper.Store, sample []op) error {
	reqs := make([]wire.Request, len(sample))
	resps := make([]wire.Response, len(sample))
	for i, o := range sample {
		id := uint64(i + 1)
		switch o.kind {
		case opGet:
			v, _ := store.Get(o.key)
			reqs[i] = wire.Request{ID: id, Op: wire.OpGet, Key: o.key}
			resps[i] = wire.Response{ID: id, Value: v}
		case opUpdate, opInsert:
			v := make([]byte, valueSize)
			stamp(v, o.key)
			reqs[i] = wire.Request{ID: id, Op: wire.OpPut, Key: o.key, Value: v}
			resps[i] = wire.Response{ID: id}
		case opScan:
			var es []wire.Entry
			_ = store.Range(o.key, o.n, func(k uint64, v []byte) bool {
				es = append(es, wire.Entry{Key: k, Value: v})
				return true
			})
			reqs[i] = wire.Request{ID: id, Op: wire.OpRange, Key: o.key, Limit: uint32(o.n)}
			resps[i] = wire.Response{ID: id, Cursor: true, Entries: es}
		}
	}
	var reqBuf, respBuf []byte
	lm["wire.req_encode_ns"] = perFrame(len(reqs), func() {
		reqBuf = reqBuf[:0]
		for i := range reqs {
			reqBuf = wire.AppendRequest(reqBuf, &reqs[i])
		}
	})
	lm["wire.resp_encode_ns"] = perFrame(len(resps), func() {
		respBuf = respBuf[:0]
		for i := range resps {
			respBuf = wire.AppendResponse(respBuf, &resps[i])
		}
	})
	reqBodies, respBodies := bodies(reqBuf), bodies(respBuf)
	// The frames must round-trip, or the decode timings below would
	// measure early error returns.
	for i := range reqs {
		if _, err := wire.DecodeRequest(reqBodies[i]); err != nil {
			return fmt.Errorf("replayed request %d does not decode: %w", i, err)
		}
		if _, err := wire.DecodeResponse(reqs[i].Op, respBodies[i]); err != nil {
			return fmt.Errorf("replayed response %d does not decode: %w", i, err)
		}
	}
	lm["wire.req_decode_ns"] = perFrame(len(reqs), func() {
		for _, b := range reqBodies {
			_, _ = wire.DecodeRequest(b)
		}
	})
	lm["wire.resp_decode_ns"] = perFrame(len(resps), func() {
		for i, b := range respBodies {
			_, _ = wire.DecodeResponse(reqs[i].Op, b)
		}
	})
	return nil
}

// bodies splits a buffer of length-prefixed frames into frame bodies.
func bodies(buf []byte) [][]byte {
	var out [][]byte
	for len(buf) >= 4 {
		n := int(binary.BigEndian.Uint32(buf))
		out = append(out, buf[4:4+n])
		buf = buf[4+n:]
	}
	return out
}

// perFrame runs pass (which handles n frames) until at least 50 ms have
// passed and returns the mean ns per frame.
func perFrame(n int, pass func()) float64 {
	if n == 0 {
		return 0
	}
	pass() // warm the buffers
	var passes int
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < 50*time.Millisecond {
		pass()
		passes++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*n)
}

// perLayer are the traced run's metrics, by layer; README.md gives the
// end-to-end metric each should move.
var perLayer = []metricDef{
	{"wire.req_encode_ns", "ns"},
	{"wire.req_decode_ns", "ns"},
	{"wire.resp_encode_ns", "ns"},
	{"wire.resp_decode_ns", "ns"},
	{"wire.bytes_per_op", "B"},
	{"server.rtt_self_us", "us"},
	{"server.coalesce_batch_mean", "count"},
	{"server.coalesce_batch_p99", "count"},
	{"server.coalesced_get_frac", "ratio"},
	{"server.flush_timer_frac", "ratio"},
	{"server.rejected_frac", "ratio"},
	{"viper.get_p50_ns", "ns"},
	{"viper.get_p99_ns", "ns"},
	{"viper.put_p50_ns", "ns"},
	{"viper.put_p99_ns", "ns"},
	{"viper.range_p50_ns", "ns"},
	{"viper.range_entries_per_batch", "count"},
	{"viper.range_presorted_frac", "ratio"},
	{"viper.range_pin_yields_per_scan", "count"},
	{"viper.page_rollovers_per_kput", "count"},
	{"index.get_ns", "ns"},
	{"index.share_of_get", "ratio"},
	{"index.range_ns_per_entry", "ns"},
	{"index.bytes_per_key", "B"},
	{"index.avg_depth", "count"},
	{"index.retrain_count", "count"},
	{"index.retrain_ms", "ms"},
	{"search.probes_per_search", "count"},
	{"retrain.inline_frac", "ratio"},
	{"retrain.coalesced_frac", "ratio"},
	{"retrain.fg_ms", "ms"},
	{"retrain.bg_ms", "ms"},
	{"retrain.queue_depth_end", "count"},
	{"epoch.retired_per_kop", "count"},
	{"epoch.pending_end", "count"},
	{"epoch.read_retry_rate", "ratio"},
	{"pmem.read_lines_per_get", "count"},
	{"pmem.read_stall_ns_per_get", "ns"},
	{"pmem.read_spun_ns_per_get", "ns"},
	{"pmem.spin_overrun", "ratio"},
	{"pmem.read_lines_per_entry", "count"},
	{"pmem.write_lines_per_put", "count"},
	{"pmem.write_stall_ns_per_put", "ns"},
	{"pmem.flushes_per_put", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead", "ratio"},
}
