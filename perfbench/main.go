// Command perfbench is the repository's benchmark: vipersrv's store and
// server stack with its defaults, on the paper's Optane device model,
// driven by a closed loop of 2 workers. See README.md for the workloads,
// the metrics and the layer-to-end-to-end mapping.
//
//	perfbench --workload ycsb-b --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). The line before it records the
// environment and the policy behind the numbers. Any operation that
// fails or returns a result the benchmark cannot prove correct makes
// the command exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"learnedpieces/internal/pmem"
	"learnedpieces/internal/server"
	"learnedpieces/internal/telemetry"
)

// setupRepeats is how many times a timed run builds the system; setup_s
// is the median, and the last build serves the run.
const setupRepeats = 5

// warmupOps is how many ops each worker issues before the measured
// phase; they are checked but not timed. The footprint is taken after
// them: an append-only store's space, and its index's DRAM, grow with
// every write, so taking them after a fixed amount of work rather than a
// fixed time keeps a faster store from looking less frugal. warmupLimit
// caps the warm-up on a machine too slow to finish it.
const (
	warmupOps   = 50_000
	warmupLimit = 60 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the store sees. "read" is the
// workload's read op (Get, or the range scan on ycsb-e); "write" is its
// update or insert.
var endToEnd = []metricDef{
	{"throughput_kops", "kops"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"dram_mb", "MB"},
	{"space_amp", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: drives every operation stream")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	d := makeData(loadKeys, insertKeys, *seed)
	env, _ := json.Marshal(map[string]any{"environment": environment(w, *seed, *seconds, *trace)})
	fmt.Fprintln(stdout, string(env))

	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runTimed(w, d, *seed, dur)
	} else {
		res, err = runTraced(w, d, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += "|"
		}
		s += w.name
	}
	return s
}

// runTimed measures the end-to-end metrics with telemetry off.
func runTimed(w workload, d *dataSet, seed int64, dur time.Duration) (*result, error) {
	m, err := measure(w, d, seed, dur, setupRepeats, nil, nil)
	if err != nil {
		return nil, err
	}
	p := m.phase
	v := map[string]float64{
		"throughput_kops": p.kops(),
		"read_p50_us":     p.readUs(50),
		"read_p90_us":     p.readUs(90),
		"write_p50_us":    p.writeUs(50),
		"write_p90_us":    p.writeUs(90),
		"setup_s":         median(m.setups),
		"cpu_us_per_op":   p.cpu.Seconds() * 1e6 / float64(p.total()),
		"dram_mb":         m.dramMB,
		"space_amp":       m.spaceAmp,
	}
	res := &result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{Value: v[def.name], Unit: def.unit}
	}
	return res, nil
}

// measured is one system's run: set-up, warm-up, the footprint after
// the warm-up, and one measured phase.
type measured struct {
	setups            []float64
	phase             *phaseResult
	attempted, failed int64
	dramMB, spaceAmp  float64
}

// errExhausted means a worker used up its share of the insert pool: the
// data set is too small for the run length and must grow.
var errExhausted = errors.New("insert pool exhausted before the run ended")

// measure builds the system repeats times (keeping the last), warms it
// up, takes its footprint and runs one measured phase of length dur.
// hook, when set, runs after the warm-up with a nil phase and again
// after the phase, with the clients gone and the system still up.
func measure(w workload, d *dataSet, seed int64, dur time.Duration, repeats int, sink *telemetry.Sink, hook func(*system, *phaseResult)) (*measured, error) {
	m := &measured{}
	var (
		sys  *system
		heap uint64 // live heap before the kept system was built
	)
	for i := 0; i < repeats; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			sys = nil
			// Hand the closed region back to the OS: one region in memory
			// at a time.
			debug.FreeOSMemory()
		}
		if i == repeats-1 {
			heap = liveHeap()
		}
		s, took, err := open(w, d, sink)
		if err != nil {
			return nil, err
		}
		sys = s
		m.setups = append(m.setups, took.Seconds())
	}
	l, err := newLoad(w, d, seed, sys)
	if err != nil {
		_ = sys.close()
		return nil, err
	}
	l.phase(warmupLimit, warmupOps, false)

	// The footprint, with the load quiescent: the device bytes allocated
	// per live byte, and the live Go heap the system holds beyond its
	// simulated region, with retrains drained so that no half-built
	// structure counts.
	m.spaceAmp = float64(sys.store.Region().Allocated()) / (float64(sys.store.Len()) * (8 + valueSize))
	sys.store.DrainRetrains()
	m.dramMB = (float64(liveHeap()) - float64(heap) - float64(sys.store.Region().Size())) / (1 << 20)

	if hook != nil {
		hook(sys, nil)
	}
	m.phase = l.phase(dur, 0, true)
	l.close()
	var (
		firstErr  error
		exhausted bool
	)
	m.attempted, m.failed, firstErr, exhausted = l.totals()
	if exhausted {
		m.failed++
		firstErr = errExhausted
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", m.failed, m.attempted, firstErr)
	}
	if hook != nil {
		hook(sys, m.phase)
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	return m, nil
}

// liveHeap is the live heap after two forced GCs (the second clears
// what sync.Pools kept through the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// environment records the machine and every policy behind the numbers.
func environment(w workload, seed int64, seconds, trace int) map[string]any {
	lat := pmem.Optane()
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"load": map[string]any{
			"model": "closed loop", "workers": numWorkers(),
			"connections":           map[bool]int{true: numWorkers(), false: 0}[w.wire],
			"transport":             map[bool]string{true: "loopback TCP to an in-process vipersrv server", false: "in-process Store calls"}[w.wire],
			"mix":                   map[string]float64{"get": w.get, "update": w.update, "insert": w.insert, "scan": w.scan},
			"keys":                  map[bool]string{true: "scrambled zipf s=1.01", false: "uniform"}[w.zipf],
			"scan_len":              fmt.Sprintf("uniform 1..%d", maxScanLen),
			"warmup_ops_per_worker": warmupOps,
		},
		"data": map[string]any{
			"keys": "dataset.OSMLike", "loaded": loadKeys, "insert_pool": insertKeys,
			"dataset_seed": datasetSeed, "value_bytes": valueSize,
		},
		"store": map[string]any{
			"index": indexName, "retrain": "async", "adapt": false,
			"region_bytes": regionBytes, "setup_repeats": setupRepeats,
			"latency_model": map[string]any{"name": "pmem.Optane", "read_ns_per_256B": lat.ReadNs, "write_ns_per_256B": lat.WriteNs},
			"flush_policy":  "pmem.Flush is a counted no-op: a durability change that makes flushes cost shows up as write latency",
		},
		"server": map[string]any{
			"coalesce_batch": server.DefaultCoalesceBatch, "coalesce_wait": server.DefaultCoalesceWait.String(),
			"max_in_flight": server.DefaultMaxInFlight,
		},
		"telemetry": map[int]string{0: "off", 1: "on for the traced half; off for the reference half"}[trace],
	}
}
