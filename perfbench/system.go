package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/core"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/server"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

// The deployed configuration: vipersrv's defaults (xindex, async
// retraining, read coalescer on at its default batch and wait, adapt
// off) on the paper's device model.
const (
	indexName   = "xindex"
	regionBytes = 512 << 20 // vipersrv's -mem default
)

// system is one store, plus the server in front of it for wire
// workloads.
type system struct {
	store  *viper.Store
	srv    *server.Server
	addr   string
	served chan error
}

// open builds the system the way vipersrv does: store open, BulkPut of
// the loaded keys (which builds the index), and for wire workloads a
// listening server. It returns the time all of that took. sink is nil
// for untraced runs.
func open(w workload, d *dataSet, sink *telemetry.Sink) (*system, time.Duration, error) {
	t0 := time.Now()
	entry, ok := core.Lookup(indexName)
	if !ok {
		return nil, 0, fmt.Errorf("index %q is not registered", indexName)
	}
	opts := []viper.Option{viper.WithRetrainMode(viper.RetrainAsync), viper.WithValueSize(valueSize)}
	if sink != nil {
		opts = append(opts, viper.WithTelemetry(sink))
	}
	st := viper.Open(pmem.NewRegion(regionBytes, pmem.Optane()), entry.New(), opts...)
	if err := st.BulkPut(d.keys, d.base); err != nil {
		_ = st.Close()
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	sys := &system{store: st}
	if w.wire {
		srv, err := server.New(server.Config{Store: st, Sink: sink})
		if err != nil {
			_ = st.Close()
			return nil, 0, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = st.Close()
			return nil, 0, err
		}
		sys.srv, sys.addr, sys.served = srv, ln.Addr().String(), make(chan error, 1)
		go func() { sys.served <- srv.Serve(ln) }()
	}
	return sys, time.Since(t0), nil
}

// close drains the server (waiting for its accept loop to return) and
// closes the store.
func (s *system) close() error {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.srv.Shutdown(ctx)
		cancel()
		<-s.served
		if err != nil {
			_ = s.store.Close()
			return fmt.Errorf("server shutdown: %w", err)
		}
	}
	return s.store.Close()
}

// executor performs ops against the system: over the wire through one
// client connection, or directly on the store.
type executor interface {
	get(key uint64) ([]byte, bool, error)
	put(key uint64, val []byte) error
	scan(start uint64, n int, out []entry) ([]entry, error)
}

type entry struct {
	key uint64
	val []byte
}

type wireExec struct {
	c   *client.Conn
	ctx context.Context
}

func (e *wireExec) get(key uint64) ([]byte, bool, error) { return e.c.Get(e.ctx, key) }

func (e *wireExec) put(key uint64, val []byte) error { return e.c.Put(e.ctx, key, val) }

func (e *wireExec) scan(start uint64, n int, out []entry) ([]entry, error) {
	err := e.c.RangeChunks(e.ctx, start, n, func(es []wire.Entry, _ bool) bool {
		for _, en := range es {
			out = append(out, entry{en.Key, en.Value})
		}
		return true
	})
	return out, err
}

type storeExec struct{ s *viper.Store }

func (e storeExec) get(key uint64) ([]byte, bool, error) {
	v, ok := e.s.Get(key)
	return v, ok, nil
}

func (e storeExec) put(key uint64, val []byte) error { return e.s.Put(key, val) }

func (e storeExec) scan(start uint64, n int, out []entry) ([]entry, error) {
	err := e.s.Range(start, n, func(k uint64, v []byte) bool {
		out = append(out, entry{k, v})
		return true
	})
	return out, err
}

// worker is one closed-loop client: it issues its stream's next op only
// after the previous one returned, and checks every result.
type worker struct {
	d    *dataSet
	st   *stream
	ex   executor
	val  []byte
	ents []entry
	chk  scanCheck

	// Per phase: nil wins is a warm-up (checked, not measured).
	start  time.Time
	winLen time.Duration
	wins   []window
	ops    [numKinds]int64

	// Whole run.
	attempted, failed int64
	firstErr          error
	exhausted         bool
}

func newWorker(d *dataSet, st *stream, ex executor) *worker {
	return &worker{d: d, st: st, ex: ex, val: make([]byte, valueSize)}
}

// run issues ops until the deadline, or until it has issued limit ops
// when limit > 0.
func (w *worker) run(until time.Time, limit int) {
	for i := 0; (limit == 0 || i < limit) && time.Now().Before(until); i++ {
		o, ok := w.st.Next()
		if !ok {
			w.exhausted = true
			return
		}
		w.do(o)
	}
}

func (w *worker) do(o op) {
	if o.kind.isWrite() {
		stamp(w.val, o.key)
	}
	var (
		v     []byte
		found bool
		err   error
	)
	t0 := time.Now()
	switch o.kind {
	case opGet:
		v, found, err = w.ex.get(o.key)
	case opUpdate, opInsert:
		err = w.ex.put(o.key, w.val)
	case opScan:
		w.ents, err = w.ex.scan(o.key, o.n, w.ents[:0])
	}
	ns := time.Since(t0).Nanoseconds()

	w.attempted++
	if err == nil {
		switch o.kind {
		case opGet:
			if !found || !w.d.validValue(o.key, v, true) {
				err = fmt.Errorf("get %d: found=%v with a value not written for it", o.key, found)
			}
		case opScan:
			w.chk.begin(w.d, o.key, o.n)
			for _, e := range w.ents {
				w.chk.add(e.key, e.val)
			}
			if !w.chk.ok() {
				err = fmt.Errorf("scan %d+%d: %d entries break the live-key model", o.key, o.n, len(w.ents))
			}
		}
	}
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("%s: %w", kindNames[o.kind], err)
		}
		return
	}
	if w.wins == nil {
		return
	}
	w.ops[o.kind]++
	i := int(t0.Sub(w.start) / w.winLen)
	if i >= len(w.wins) {
		i = len(w.wins) - 1
	}
	win := &w.wins[i]
	win.ops++
	if o.kind.isWrite() {
		win.write.add(ns)
	} else {
		win.read.add(ns)
	}
}

// load is the closed-loop client side of one run: its workers keep
// their streams and connections across phases.
type load struct {
	workers []*worker
	conns   []*client.Conn
	cancel  context.CancelFunc
}

// numWorkers is the closed loop's width: 2 workers (and 2 connections),
// never more than the machine's CPUs.
func numWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// replyTimeout bounds the wait for one reply; a reply that never comes
// fails its op as lost.
const replyTimeout = 20 * time.Second

func newLoad(w workload, d *dataSet, seed int64, sys *system) (*load, error) {
	n := numWorkers()
	l := &load{}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	for i := 0; i < n; i++ {
		var ex executor = storeExec{sys.store}
		if w.wire {
			c, err := client.Dial(sys.addr)
			if err != nil {
				l.close()
				return nil, fmt.Errorf("dial %s: %w", sys.addr, err)
			}
			l.conns = append(l.conns, c)
			ex = &wireExec{c: c, ctx: ctx}
		}
		l.workers = append(l.workers, newWorker(d, newStream(w, d, seed, i, n), ex))
	}
	return l, nil
}

// phaseResult is what one phase measured, summed over workers.
type phaseResult struct {
	ops  [numKinds]int64
	wins []window
	secs float64       // length of one window
	cpu  time.Duration // process CPU time (user + system) the phase used
}

func (p *phaseResult) total() int64 {
	var t int64
	for _, n := range p.ops {
		t += n
	}
	return t
}

// kops is the median over windows of ops completed per second.
func (p *phaseResult) kops() float64 {
	return medianOver(p.wins, func(w *window) (float64, bool) { return float64(w.ops) / p.secs / 1e3, true })
}

// readUs and writeUs are the median over windows of the q-th percentile
// latency, in microseconds.
func (p *phaseResult) readUs(q float64) float64 {
	return medianOver(p.wins, func(w *window) (float64, bool) {
		v, ok := w.read.percentile(q)
		return v / 1e3, ok
	})
}

func (p *phaseResult) writeUs(q float64) float64 {
	return medianOver(p.wins, func(w *window) (float64, bool) {
		v, ok := w.write.percentile(q)
		return v / 1e3, ok
	})
}

// phase runs every worker for d, or until each has issued limit ops when
// limit > 0, and waits for all of them. When record is false the ops are
// still checked but not measured (warm-up).
func (l *load) phase(d time.Duration, limit int, record bool) *phaseResult {
	n := numWindows(d)
	t0 := time.Now()
	until := t0.Add(d)
	for _, w := range l.workers {
		w.start, w.winLen, w.wins, w.ops = t0, d/time.Duration(n), nil, [numKinds]int64{}
		if record {
			w.wins = make([]window, n)
		}
	}
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for _, w := range l.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// A lost reply would block forever; the watchdog cancels the
			// shared context so the op fails instead.
			stop := time.AfterFunc(time.Until(until)+replyTimeout, l.cancel)
			defer stop.Stop()
			w.run(until, limit)
		}(w)
	}
	wg.Wait()
	res := &phaseResult{wins: make([]window, n), secs: d.Seconds() / float64(n), cpu: cpuTime() - cpu0}
	for _, w := range l.workers {
		for k, c := range w.ops {
			res.ops[k] += c
		}
		for i, win := range w.wins {
			res.wins[i].ops += win.ops
			res.wins[i].read = append(res.wins[i].read, win.read...)
			res.wins[i].write = append(res.wins[i].write, win.write...)
		}
		w.wins = nil
	}
	if record {
		res.log(d)
	}
	return res
}

// log writes each window's throughput and read p90 to standard error,
// for reading a run's noise.
func (p *phaseResult) log(d time.Duration) {
	var kops, p90 strings.Builder
	for i := range p.wins {
		v, _ := p.wins[i].read.percentile(90)
		fmt.Fprintf(&kops, " %.1f", float64(p.wins[i].ops)/p.secs/1e3)
		fmt.Fprintf(&p90, " %.1f", v/1e3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v phase, kops per window:%s\nperfbench: read p90 us per window:%s\n", d, kops.String(), p90.String())
}

// errStray marks replies that matched no outstanding request.
var errStray = errors.New("duplicated or unmatched replies")

// close hangs up and accounts duplicated replies as failures.
func (l *load) close() {
	for _, c := range l.conns {
		if n := c.Strays(); n > 0 && len(l.workers) > 0 {
			w := l.workers[0]
			w.failed += n
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("%d %w", n, errStray)
			}
		}
		_ = c.Close()
	}
	l.cancel()
}

// totals sums the run-wide counters of every worker.
func (l *load) totals() (attempted, failed int64, firstErr error, exhausted bool) {
	for _, w := range l.workers {
		attempted += w.attempted
		failed += w.failed
		if firstErr == nil {
			firstErr = w.firstErr
		}
		exhausted = exhausted || w.exhausted
	}
	return
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
