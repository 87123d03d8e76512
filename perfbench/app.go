package main

// The app phase: the per-operation price a protected program pays.
//
// Two goroutines share one offline communix.Node and run seeded call
// paths appDepth frames deep (capture and goroutine-id cost grow with
// depth). Each path ends in a nested Mutex pair (Lock, Lock, Unlock,
// Unlock) or a Send+Recv pair on one buffered communix.Chan the two
// goroutines share; one op in four is a channel pair. One lock-pair path
// in 16 takes locks both goroutines take, always in ascending lock
// order, so they contend but never deadlock. After each op a goroutine
// does seeded application work, untimed, of 0–800k rounds of an integer
// hash (about 0.7 ms on average), so ops take about a fifth of its
// time. Two goroutines calling stacktrace.GoroutineID back to back fall
// into lock-step or alternating patterns whose per-call cost differs by
// up to 2x from run to run; random gaps make them collide at random, and
// long ones make them collide rarely: with ops at half of each
// goroutine's time the ten-run spread of the lock-pair p50 reached 0.21.
// Every goroutine sends before it receives, so the shared channel always
// holds an item for a receiver and never blocks.
//
// The history file holds appHistorySigs signatures built from the
// sites' own captured stacks. A quarter of the paths are "matched": a
// signature's first slot is that path's outer (send) stack, while its
// second slot names code that never runs. That is Table II's attack
// shape: matched acquisitions take the avoidance index's matched path,
// yet nothing may ever yield or deadlock.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"communix"
	"communix/internal/dimmunix"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/stacktrace"
)

const (
	appDepth       = 19 // frames per path; with the op's own frames a site's stack is 24 deep
	appLockPaths   = 48 // lock-pair paths per goroutine
	appChanPaths   = 8  // chan-pair paths per goroutine
	appSigSuffix   = 12 // frames of a captured stack kept in a history signature
	appHistorySigs = 256
	appSchedule    = 512 // ops in one goroutine's repeating schedule
	appChanCap     = 8
	appThink       = 400000 // mean think rounds between ops
	opLock         = 0
	opChan         = 1
)

// locker is what a lock site calls: *communix.Mutex when measuring, a
// stack recorder while the fixture is built, a span-timing wrapper when
// tracing. Calling through the interface reaches (*Mutex).Lock directly,
// so the site's line is the captured top frame in every mode.
type locker interface {
	Lock() error
	Unlock() error
}

// chanOps is what a channel site calls (same three modes).
type chanOps interface {
	Send(v int) error
	Recv() (int, bool, error)
}

// step is one seeded call path and the op at its bottom.
type step struct {
	fns          []uint8 // frame function per level, outermost first
	kind         int     // opLock or opChan
	outer, inner int     // lock sites, or send/recv sites
	a, b         int     // lock indices, a < b (global acquisition order)
	shared       bool
	matched      bool
}

// appWorker is one goroutine of the app phase.
type appWorker struct {
	id       int
	steps    []step
	schedule []int
	think    []int // think rounds after each schedule entry
	locks    []locker
	ch       chanOps
	cur      *step
	val      int
	lat      [2]samples // per op kind, latency in microseconds
	spans    spanSet    // traced runs
	// pairSpans sums the traced spans of the lock pair in progress.
	pairSpans float64
	err       error
	sent      int64
	received  int64
}

var frameFns [8]func(*appWorker, int) error

func init() {
	frameFns = [8]func(*appWorker, int) error{f0, f1, f2, f3, f4, f5, f6, f7}
}

// f0..f7 are the frames of a call path: each walks one frame deeper
// along the current path, or runs the op at the bottom. They are
// distinct functions, so different paths have different stacks, and
// each level is exactly one frame.

//go:noinline
func f0(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f1(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f2(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f3(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f4(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f5(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f6(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

//go:noinline
func f7(w *appWorker, d int) error {
	if d < len(w.cur.fns) {
		return frameFns[w.cur.fns[d]](w, d+1)
	}
	return w.leaf()
}

// leaf times one op.
//
//go:noinline
func (w *appWorker) leaf() error {
	s := w.cur
	t0 := time.Now()
	var err error
	if s.kind == opLock {
		err = lockPair(s, w.locks[s.a], w.locks[s.b])
	} else {
		w.val++
		err = chanPair(s, w.ch, w)
	}
	end := time.Now()
	w.lat[s.kind] = append(w.lat[s.kind], float64(end.Sub(t0))/1e3)
	if w.spans != nil && s.kind == opLock {
		w.spans.add("pair.lock_spans_ns", w.pairSpans)
		w.pairSpans = 0
	}
	return err
}

//go:noinline
func lockPair(s *step, a, b locker) error {
	if err := outerSite(s.outer, a); err != nil {
		return err
	}
	if err := innerSite(s.inner, b); err != nil {
		_ = a.Unlock()
		return err
	}
	return errors.Join(b.Unlock(), a.Unlock())
}

//go:noinline
func chanPair(s *step, c chanOps, w *appWorker) error {
	if err := sendSite(s.outer, c, w.val); err != nil {
		return err
	}
	w.sent += int64(w.val)
	v, ok, err := recvSite(s.inner, c)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("channel closed")
	}
	w.received += int64(v)
	return nil
}

// The site functions give every site its own line, hence its own top
// frame.

//go:noinline
func outerSite(site int, l locker) error {
	switch site {
	case 0:
		return l.Lock()
	case 1:
		return l.Lock()
	case 2:
		return l.Lock()
	case 3:
		return l.Lock()
	case 4:
		return l.Lock()
	case 5:
		return l.Lock()
	case 6:
		return l.Lock()
	default:
		return l.Lock()
	}
}

//go:noinline
func innerSite(site int, l locker) error {
	switch site {
	case 0:
		return l.Lock()
	case 1:
		return l.Lock()
	case 2:
		return l.Lock()
	case 3:
		return l.Lock()
	case 4:
		return l.Lock()
	case 5:
		return l.Lock()
	case 6:
		return l.Lock()
	default:
		return l.Lock()
	}
}

//go:noinline
func sendSite(site int, c chanOps, v int) error {
	switch site {
	case 0:
		return c.Send(v)
	case 1:
		return c.Send(v)
	case 2:
		return c.Send(v)
	default:
		return c.Send(v)
	}
}

//go:noinline
func recvSite(site int, c chanOps) (int, bool, error) {
	switch site {
	case 0:
		return c.Recv()
	case 1:
		return c.Recv()
	case 2:
		return c.Recv()
	default:
		return c.Recv()
	}
}

// run executes the worker's schedule until stop is set.
//
//go:noinline
func (w *appWorker) run(stop *atomic.Bool) {
	for i := 0; !stop.Load(); i++ {
		k := i % len(w.schedule)
		w.cur = &w.steps[w.schedule[k]]
		if err := frameFns[w.cur.fns[0]](w, 1); err != nil {
			w.err = err
			return
		}
		think(w.think[k])
	}
}

// thinkSink keeps think's loop from being optimized away.
var thinkSink atomic.Uint64

// think is the application's own work between two protected ops: n
// rounds of an integer hash, untimed.
//
//go:noinline
func think(n int) {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	thinkSink.Store(x)
}

// recorder captures the stack a site would hand the runtime.
type recorder struct {
	reg *stacktrace.Registry
	got []sig.Stack
}

func (r *recorder) grab(kind string) {
	cs := stacktrace.Capture(r.reg, 2, stacktrace.DefaultDepth)
	if len(cs) > 0 {
		cs[len(cs)-1].Kind = kind
	}
	r.got = append(r.got, cs)
}

func (r *recorder) Lock() error              { r.grab(sig.KindLock); return nil }
func (r *recorder) Unlock() error            { return nil }
func (r *recorder) Send(int) error           { r.grab(sig.KindChanSend); return nil }
func (r *recorder) Recv() (int, bool, error) { r.grab(sig.KindChanRecv); return 0, true, nil }

// appFixture is the generated input of one app phase.
type appFixture struct {
	steps      [2][]step
	schedules  [2][]int
	thinks     [2][]int
	histPath   string
	matched    int // matched signatures in the history
	stackDepth int // depth of a captured outer stack
}

// buildAppFixture generates the paths, records their stacks and writes
// the history file. Nothing here is timed.
func buildAppFixture(r *rand.Rand, dir string) (*appFixture, error) {
	fx := &appFixture{histPath: filepath.Join(dir, "history.json")}
	const shared = 4 // locks 0..3 are shared; each worker owns 4 more
	for g := 0; g < 2; g++ {
		own := shared + 4*g
		for i := 0; i < appLockPaths+appChanPaths; i++ {
			s := step{fns: make([]uint8, appDepth)}
			for d := range s.fns {
				s.fns[d] = uint8(r.Intn(len(frameFns)))
			}
			if i < appLockPaths {
				s.kind = opLock
				s.outer, s.inner = r.Intn(8), r.Intn(8)
				s.shared = i%16 == 0
				base := own
				if s.shared {
					base = 0
				}
				s.a = base + r.Intn(3)
				s.b = s.a + 1 + r.Intn(3-(s.a-base))
				s.matched = i%4 == 1
			} else {
				s.kind = opChan
				s.outer, s.inner = r.Intn(4), r.Intn(4)
				s.matched = (i-appLockPaths)%4 == 1
			}
			fx.steps[g] = append(fx.steps[g], s)
		}
		for i := 0; i < appSchedule; i++ {
			fx.thinks[g] = append(fx.thinks[g], r.Intn(2*appThink))
			if i%4 == 3 {
				fx.schedules[g] = append(fx.schedules[g], appLockPaths+r.Intn(appChanPaths))
			} else {
				fx.schedules[g] = append(fx.schedules[g], r.Intn(appLockPaths))
			}
		}
	}

	// Record every matched path's stacks through the exact call path the
	// measured run takes, on goroutines started the same way.
	reg := stacktrace.NewRegistry()
	h := dimmunix.NewHistory()
	for g := 0; g < 2; g++ {
		for i := range fx.steps[g] {
			s := &fx.steps[g][i]
			if !s.matched {
				continue
			}
			rec := &recorder{reg: reg}
			w := &appWorker{steps: fx.steps[g], ch: rec, locks: make([]locker, 12)}
			for j := range w.locks {
				w.locks[j] = rec
			}
			w.cur = s
			done := make(chan error, 1)
			go func() { done <- frameFns[w.cur.fns[0]](w, 1) }()
			if err := <-done; err != nil {
				return nil, err
			}
			if len(rec.got) != 2 {
				return nil, fmt.Errorf("recorded %d stacks for one path", len(rec.got))
			}
			fx.stackDepth = len(rec.got[0])
			fake := sigtest.Signature(r, sigtest.DefaultVocabulary, appSigSuffix, appSigSuffix)
			t2 := fake.Threads[0]
			if s.kind == opChan {
				t2.Outer[len(t2.Outer)-1].Kind = sig.KindChanSend
				t2.Inner[len(t2.Inner)-1].Kind = sig.KindChanRecv
			}
			m := sig.New(sig.ThreadSpec{
				Outer: rec.got[0].Suffix(appSigSuffix).Clone(),
				Inner: rec.got[1].Suffix(appSigSuffix).Clone(),
			}, t2)
			if !h.Add(m) {
				return nil, errors.New("matched signature not added")
			}
			fx.matched++
		}
	}
	for h.Len() < appHistorySigs {
		filler := sigtest.Signature(r, sigtest.DefaultVocabulary, 5, 14)
		if h.Len()%5 == 0 {
			for i := range filler.Threads {
				filler.Threads[i].Outer[len(filler.Threads[i].Outer)-1].Kind = sig.KindChanSend
				filler.Threads[i].Inner[len(filler.Threads[i].Inner)-1].Kind = sig.KindChanRecv
			}
		}
		h.Add(filler)
	}
	if err := h.SaveTo(fx.histPath); err != nil {
		return nil, err
	}
	if err := syncPath(fx.histPath); err != nil {
		return nil, err
	}
	return fx, nil
}

// runApp runs the app phase.
func runApp(cfg phaseConfig) (*phaseOut, error) {
	out := &phaseOut{e2e: metrics{}, layers: metrics{}}
	r := rand.New(rand.NewSource(cfg.seed))
	fx, err := buildAppFixture(r, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	out.logf("%d paths per goroutine at a captured depth of %d frames; history %d signatures, %d matched",
		appLockPaths+appChanPaths, fx.stackDepth, appHistorySigs, fx.matched)

	var node *communix.Node
	for cfg.setupAgain(out.setup) {
		if node != nil {
			node.Close()
		}
		t0 := time.Now()
		node, err = communix.NewNode(communix.NodeConfig{HistoryPath: fx.histPath, Policy: communix.RecoverBreak})
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, since(t0))
	}
	defer node.Close()
	if got := node.History().Len(); got != appHistorySigs {
		return nil, fmt.Errorf("history holds %d signatures, want %d", got, appHistorySigs)
	}

	mutexes := make([]*communix.Mutex, 12)
	for i := range mutexes {
		mutexes[i] = node.NewMutex(fmt.Sprintf("m%d", i))
	}
	ch := communix.NewChan[int](node, "pipe", appChanCap)

	plain := func(w *appWorker) {
		for i, m := range mutexes {
			w.locks[i] = m
		}
		w.ch = ch
	}
	ws, elapsed := appMeasure(fx, cfg.measure, plain)
	lockD, chanD := out.checkApp(ws, node)
	out.e2e.set("app_ops_per_s", float64(lockD.n+chanD.n)/elapsed.Seconds(), "ops/s")
	out.e2e.set("lock_pair_p50_us", lockD.p50, "us")
	out.e2e.set("chan_pair_p50_us", chanD.p50, "us")
	lockD.reportTail(out.e2e, "lock_pair", "us")
	chanD.reportTail(out.e2e, "chan_pair", "us")
	out.logf("%d lock pairs (p50 %.1fus, p%d %.1fus) and %d chan pairs (p50 %.1fus, p%d %.1fus) in %.2fs",
		lockD.n, lockD.p50, lockD.tailP, lockD.tail, chanD.n, chanD.p50, chanD.tailP, chanD.tail, elapsed.Seconds())

	if cfg.trace {
		out.layers.set("app.lock_pair_samples", float64(lockD.n), "count")
		out.layers.set("app.chan_pair_samples", float64(chanD.n), "count")
		if err := appTrace(cfg, out, fx, node, mutexes, ch, lockD.p50); err != nil {
			return nil, err
		}
	}
	out.heapMB = liveHeapMB()
	return out, nil
}

// appMeasure runs both workers for d and returns them with the elapsed
// time. wire installs each worker's lockers and channel.
func appMeasure(fx *appFixture, d time.Duration, wire func(*appWorker)) ([]*appWorker, time.Duration) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	ws := make([]*appWorker, 2)
	for g := range ws {
		ws[g] = &appWorker{id: g, steps: fx.steps[g], schedule: fx.schedules[g], think: fx.thinks[g], locks: make([]locker, 12)}
		wire(ws[g])
	}
	t0 := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *appWorker) {
			defer wg.Done()
			w.run(&stop)
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return ws, time.Since(t0)
}

// checkApp applies the app phase's correctness gate (no errors, no
// deadlocks, no yields, every value sent was received) and summarizes
// both workers' lock pairs and chan pairs.
func (o *phaseOut) checkApp(ws []*appWorker, node *communix.Node) (lockD, chanD dist) {
	var sent, received int64
	var lockLat, chanLat samples
	for _, w := range ws {
		lockLat = append(lockLat, w.lat[opLock]...)
		chanLat = append(chanLat, w.lat[opChan]...)
		sent += w.sent
		received += w.received
		if w.err != nil {
			o.fail(1, "goroutine %d: %v", w.id, w.err)
		}
	}
	o.attempted += int64(len(lockLat) + len(chanLat))
	st, cst := node.Runtime().Stats(), node.ChanRuntime().Stats()
	o.fail(int64(st.Deadlocks+cst.Deadlocks), "deadlocks detected")
	o.fail(int64(st.Yields+cst.Yields), "avoidance yields in a workload that never instantiates a signature")
	if sent != received {
		o.fail(1, "channel values sent (sum %d) differ from values received (sum %d)", sent, received)
	}
	return summarize(lockLat, 99), summarize(chanLat, 99)
}

// tracedMutex splits (*Mutex).Lock into the public calls it is made of
// — stacktrace.GoroutineID, Cache.CaptureAdaptive over the history's
// index, Mutex.LockAt — and times each.
type tracedMutex struct {
	m     *communix.Mutex
	w     *appWorker
	hist  *dimmunix.History
	cache *stacktrace.Cache
	held  *int // locks the worker holds: 0 means this is an outer acquisition
	miss  *int64
}

func (t *tracedMutex) Lock() error {
	t0 := time.Now()
	tid := dimmunix.ThreadID(stacktrace.GoroutineID())
	t1 := time.Now()
	idx := t.hist.Index()
	cs := t.cache.CaptureAdaptive(1, idx, 0, stacktrace.DefaultDepth)
	t2 := time.Now()
	err := t.m.LockAt(tid, cs)
	t3 := time.Now()
	sp := t.w.spans
	sp.add("stacktrace.gid_ns", nanos(t1.Sub(t0)))
	sp.add("stacktrace.capture_ns", nanos(t2.Sub(t1)))
	matched := *t.held == 0 && t.w.cur.matched
	if matched {
		sp.add("dimmunix.acquire_matched_ns", nanos(t3.Sub(t2)))
	} else {
		sp.add("dimmunix.acquire_ns", nanos(t3.Sub(t2)))
	}
	t.w.pairSpans += nanos(t3.Sub(t0))
	// The probe must reach what it names: a matched acquisition's stack
	// matches the avoidance index and no other does.
	if idx.Matches(cs) != matched {
		*t.miss++
	}
	*t.held++
	return err
}

func (t *tracedMutex) Unlock() error {
	t0 := time.Now()
	tid := dimmunix.ThreadID(stacktrace.GoroutineID())
	t1 := time.Now()
	err := t.m.UnlockAt(tid)
	t2 := time.Now()
	t.w.spans.add("stacktrace.gid_ns", nanos(t1.Sub(t0)))
	t.w.spans.add("dimmunix.release_ns", nanos(t2.Sub(t1)))
	t.w.pairSpans += nanos(t2.Sub(t0))
	*t.held--
	return err
}

// tracedChan times the channel's public Send and Recv.
type tracedChan struct {
	c *communix.Chan[int]
	w *appWorker
}

func (t *tracedChan) Send(v int) error {
	t0 := time.Now()
	err := t.c.Send(v)
	t.w.spans.add("commdlk.send_ns", nanos(time.Since(t0)))
	return err
}

func (t *tracedChan) Recv() (int, bool, error) {
	t0 := time.Now()
	v, ok, err := t.c.Recv()
	t.w.spans.add("commdlk.recv_ns", nanos(time.Since(t0)))
	return v, ok, err
}

// appTrace runs the app phase again with every lock and channel op split
// into timed spans, and reports the per-layer metrics.
func appTrace(cfg phaseConfig, out *phaseOut, fx *appFixture, node *communix.Node,
	mutexes []*communix.Mutex, ch *communix.Chan[int], untracedP50 float64) error {
	var loads samples
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		h, err := dimmunix.LoadHistory(fx.histPath)
		if err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
		if h.Len() != appHistorySigs {
			return fmt.Errorf("history reload holds %d signatures", h.Len())
		}
	}
	out.layers.set("dimmunix.history_load_ms", median(loads), "ms")

	before, cbefore := node.Runtime().Stats(), node.ChanRuntime().Stats()
	var miss int64
	held := [2]int{}
	traced := func(w *appWorker) {
		w.spans = spanSet{}
		cache := stacktrace.NewCache(node.Runtime().Registry())
		for i, m := range mutexes {
			w.locks[i] = &tracedMutex{m: m, w: w, hist: node.History(), cache: cache, held: &held[w.id], miss: &miss}
		}
		w.ch = &tracedChan{c: ch, w: w}
	}
	ws, _ := appMeasure(fx, cfg.measure, traced)
	lockD, _ := out.checkApp(ws, node)
	out.fail(miss, "traced acquisitions whose avoidance-index match differs from the plan")
	spans := spanSet{}
	for _, w := range ws {
		for k, v := range w.spans {
			spans[k] = append(spans[k], v...)
		}
	}
	for _, name := range []string{"stacktrace.gid_ns", "stacktrace.capture_ns", "dimmunix.acquire_ns",
		"dimmunix.acquire_matched_ns", "dimmunix.release_ns", "commdlk.send_ns", "commdlk.recv_ns"} {
		if len(spans[name]) == 0 {
			return fmt.Errorf("traced run recorded no %s span", name)
		}
		out.layers.set(name, median(spans[name]), "ns")
	}
	after, cafter := node.Runtime().Stats(), node.ChanRuntime().Stats()
	out.layers.set("dimmunix.yields", float64(after.Yields-before.Yields), "count")
	out.layers.set("dimmunix.contended", float64(after.Contended-before.Contended), "count")
	out.layers.set("commdlk.blocked", float64(cafter.Blocked-cbefore.Blocked), "count")

	// Blocking path of a lock pair: the median of the traced pairs' span
	// totals against the untraced pair median.
	p50 := untracedP50 * 1e3
	spansPerPair := spans.medianOr("pair.lock_spans_ns")
	out.layers.set("app.lock_pair_unattributed_ns", p50-spansPerPair, "ns")
	out.layers.set("app.trace_overhead_pct", 100*(lockD.p50*1e3/p50-1), "%")
	gid := 4 * spans.medianOr("stacktrace.gid_ns")
	out.logf("lock pair p50 %.0fns (untraced): %.0fns goroutine ids (%.0f%%), %.0fns captures, "+
		"%.0fns acquires, %.0fns releases, %.0fns unattributed", p50, gid, 100*gid/p50,
		2*spans.medianOr("stacktrace.capture_ns"), 2*spans.medianOr("dimmunix.acquire_ns"),
		2*spans.medianOr("dimmunix.release_ns"), p50-spansPerPair)

	// The raw-channel reference: the same send+recv pair on a native
	// buffered channel, timed in batches.
	raw := make(chan int, appChanCap)
	var rawPairs samples
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		for j := 0; j < 1000; j++ {
			raw <- j
			<-raw
		}
		rawPairs = append(rawPairs, nanos(time.Since(t0))/1000)
	}
	out.layers.set("commdlk.raw_pair_ns", median(rawPairs), "ns")
	out.logf("chan pair: send %.0fns + recv %.0fns vs %.0fns for a raw channel pair",
		spans.medianOr("commdlk.send_ns"), spans.medianOr("commdlk.recv_ns"), median(rawPairs))
	return nil
}
