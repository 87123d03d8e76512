package main

// The protect phase: time-to-protection (§IV-C) through replication,
// quorum, push and agent install.
//
// An open loop at protectRate detections per second. On each tick node
// A drives one real two-goroutine deadlock, under RecoverBreak, at fresh
// nested lock sites of a generated bytecode application; every tick uses
// sites no other tick uses, so no upload is a duplicate or adjacent to
// another. A's plugin uploads the signature to the primary of an
// in-process three-member cell acknowledging uploads only once a
// majority holds them (AckQuorum). The cell's daily limit is raised to
// cover A, which is a single user. Node B runs the same application as
// its application view and subscribes to a follower, so every pushed
// batch goes through agent validation into B's history. Meanwhile one B
// goroutine keeps replaying the application's lock paths.
//
// A tick's time-to-protection runs from the tick's due time (so a late
// generator shows) until B's OnSignatures callback finds the signature
// in B's history. No timed path sleeps or polls.
//
// Set-up starts the followers empty against a primary preloaded with
// protectPreload signatures, protectValidPre of them valid for the
// application, and ends once both followers hold the preload and B has
// synced and validated it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"communix"
	"communix/internal/agent"
	"communix/internal/bytecode"
	"communix/internal/dimmunix"
	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
	"communix/internal/wire"
)

const (
	protectRate     = 50 // detections per second
	protectWarmup   = 5  // ticks before the measured ones
	protectPreload  = 2000
	protectValidPre = 20 // preloaded signatures valid for the application
	protectTraps    = 8  // traps B replays at the end
	protectDay      = 1 << 20
	protectWait     = 30 * time.Second // bound on any wait for the system
	protectUserA    = ids.UserID(900_000)
)

// trap is one planned two-goroutine deadlock: thread 1 nests p's lock
// statements, thread 2 nests q's on the same two locks in the opposite
// order.
type trap struct {
	p, q bytecode.LockPath
	sig  *sig.Signature
	id   string
}

type protectFixture struct {
	view    *bytecode.View
	valid   []trap // preloaded
	traps   []trap // one per tick, in tick order
	preDir  string
	appName string
	tokenA  ids.Token
}

// stampPath attaches the application's unit hashes to a lock path's
// stacks, as the plugin does.
func stampPath(app *bytecode.App, lp bytecode.LockPath) bytecode.LockPath {
	stamp := func(cs sig.Stack) sig.Stack {
		out := cs.Clone()
		for i := range out {
			out[i] = app.Frame(out[i].Class, out[i].Method, out[i].Line)
		}
		return out
	}
	lp.Outer, lp.Inner = stamp(lp.Outer), stamp(lp.Inner)
	return lp
}

// buildProtectFixture generates the application, the traps and the
// primary's preloaded data directory. Nothing here is timed.
func buildProtectFixture(r *rand.Rand, dir string, ticks int) (*protectFixture, error) {
	traps := ticks + protectValidPre
	nested := 2*traps + traps/4 + 20
	analyzed := 2*nested + 100
	app, err := bytecode.Generate(bytecode.Profile{
		Name: "protect", LOC: 10 * (analyzed + 200), SyncSites: analyzed + 200,
		ExplicitOps: 10, Analyzed: analyzed, Nested: nested, Seed: r.Int63(),
	})
	if err != nil {
		return nil, err
	}
	fx := &protectFixture{view: bytecode.NewView(app), preDir: filepath.Join(dir, "preload"), appName: app.Name}
	fx.view.LoadAll()
	used := map[string]bool{}
	var picked []bytecode.LockPath
	for _, lp := range app.LockPaths() {
		if !lp.Nested || lp.Opaque {
			continue
		}
		o, in := lp.Outer.Top().Key(), lp.Inner.Top().Key()
		if used[o] || used[in] || o == in {
			continue
		}
		used[o], used[in] = true, true
		picked = append(picked, stampPath(app, lp))
	}
	if len(picked) < 2*traps {
		return nil, fmt.Errorf("application has %d disjoint nested constructs, need %d", len(picked), 2*traps)
	}
	r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	all := make([]trap, traps)
	for i := range all {
		p, q := picked[2*i], picked[2*i+1]
		s := sig.New(sig.ThreadSpec{Outer: p.Outer, Inner: p.Inner}, sig.ThreadSpec{Outer: q.Outer, Inner: q.Inner})
		all[i] = trap{p: p, q: q, sig: s, id: s.ID()}
	}
	fx.valid, fx.traps = all[:protectValidPre], all[protectValidPre:]
	codec, err := ids.NewCodec(benchKey)
	if err != nil {
		return nil, err
	}
	fx.tokenA = codec.Mint(protectUserA)

	pre, err := store.Open(store.Config{DataDir: fx.preDir, Fsync: store.FsyncOff, Clock: pinnedClock, MaxPerDay: protectDay})
	if err != nil {
		return nil, err
	}
	salt := int(r.Int31())
	var batch []store.Upload
	for i := 0; i < protectPreload; i++ {
		user := ids.UserID(1 + i/ingestPreloadEach)
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt+i, 5, 8)
		if i < protectValidPre {
			s = fx.valid[i].sig
		}
		batch = append(batch, store.Upload{User: user, Sig: s})
	}
	for i, res := range pre.AddBatch(batch) {
		if !res.Added || res.Err != nil {
			pre.Close()
			return nil, fmt.Errorf("preload %d not added: %v", i, res.Err)
		}
	}
	if err := pre.Close(); err != nil {
		return nil, err
	}
	return fx, syncDir(fx.preDir)
}

// stamps are the traced run's event times, keyed by signature ID or by
// log index; they are joined per tick once the window is over.
type stamps struct {
	mu     sync.Mutex
	detect map[string]time.Time // A's OnDeadlock
	write  map[string]time.Time // A's ADD frame written
	reqSig map[uint64]string    // A's request id → signature ID
	ack    map[string]time.Time // A reads the ADD's OK
	index  map[string]int       // signature ID → committed log index
	repl   map[int]time.Time    // the replication page reaches B's follower
	push   map[int]time.Time    // the PUSH reaches B
}

func newStamps() *stamps {
	return &stamps{detect: map[string]time.Time{}, write: map[string]time.Time{}, reqSig: map[uint64]string{},
		ack: map[string]time.Time{}, index: map[string]int{}, repl: map[int]time.Time{}, push: map[int]time.Time{}}
}

// markRange stamps the log indexes a page of n entries ending before
// next covers, keeping the first stamp of each.
func markRange(m map[int]time.Time, next, n int, at time.Time) {
	for k := next - n; k < next; k++ {
		if _, ok := m[k]; !ok {
			m[k] = at
		}
	}
}

// protectRun is one cell with its two nodes.
type protectRun struct {
	fx     *protectFixture
	dir    string
	st     *stamps // nil when not tracing
	addrs  [3]string
	srvs   [3]*server.Server
	served [3]chan error
	nodeA  *communix.Node
	nodeB  *communix.Node

	mu        sync.Mutex
	bAdded    int
	aAdded    int
	bReady    chan struct{}
	aReady    chan struct{}
	caught    [2]chan struct{}
	histB     *dimmunix.History
	pending   map[int]*pendingTick
	drained   chan struct{}
	ticking   bool
	tickFails atomic.Int64
	tidBase   dimmunix.ThreadID
}

type pendingTick struct {
	id        string
	due       time.Time
	installed time.Time
	done      bool
}

// onB is B's OnSignatures callback: it runs after the pushed batch went
// through agent validation into B's history.
func (pr *protectRun) onB(added int) {
	now := time.Now()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.bAdded += added
	if pr.bAdded >= protectPreload && pr.bReady != nil {
		close(pr.bReady)
		pr.bReady = nil
	}
	if pr.histB == nil {
		return
	}
	open := 0
	for _, p := range pr.pending {
		if p.done {
			continue
		}
		if pr.histB.Get(p.id) != nil {
			p.installed, p.done = now, true
			continue
		}
		open++
	}
	if open == 0 && !pr.ticking && pr.drained != nil {
		close(pr.drained)
		pr.drained = nil
	}
}

func (pr *protectRun) onA(added int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.aAdded += added
	if pr.aAdded >= protectPreload && pr.aReady != nil {
		close(pr.aReady)
		pr.aReady = nil
	}
}

func waitFor(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(protectWait):
		return fmt.Errorf("timed out waiting for %s", what)
	}
}

// start brings up the cell and node B: the timed set-up. It returns the
// set-up time and the followers' catch-up time.
func (pr *protectRun) start(rep int) (setup, catchup float64, err error) {
	dirs := [3]string{}
	for i := range dirs {
		dirs[i] = filepath.Join(pr.dir, fmt.Sprintf("r%d-n%d", rep, i))
	}
	if err := copyDir(pr.fx.preDir, dirs[0]); err != nil {
		return 0, 0, err
	}
	pr.bReady = make(chan struct{})
	for i := range pr.caught {
		pr.caught[i] = make(chan struct{})
	}

	t0 := time.Now()
	var ls [3]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return 0, 0, err
		}
		pr.addrs[i] = ls[i].Addr().String()
	}
	for i := range pr.srvs {
		var peers []string
		for j, a := range pr.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := server.Config{
			Key: benchKey, DataDir: dirs[i], Clock: pinnedClock, MaxPerDay: protectDay,
			AckMode: server.AckQuorum, Advertise: pr.addrs[i], NodeID: pr.addrs[i], Peers: peers,
			ElectionTimeout: time.Hour, AckTimeout: protectWait,
		}
		if i > 0 {
			cfg.Follow = pr.addrs[0]
			cfg.FollowDial = tapDial(pr.addrs[0], pr.replTap(i), pr.cursorTap(i-1))
		}
		srv, err := server.New(cfg)
		if err != nil {
			for j := i; j < len(ls); j++ {
				ls[j].Close()
			}
			return 0, 0, err
		}
		pr.srvs[i] = srv
		pr.served[i] = make(chan error, 1)
		go func(i int) { pr.served[i] <- srv.Serve(ls[i]) }(i)
	}
	for i := range pr.caught {
		if err := waitFor(pr.caught[i], "follower catch-up"); err != nil {
			return 0, 0, err
		}
	}
	catchup = since(t0)

	var onRead func(frame, time.Time)
	if pr.st != nil {
		onRead = pr.pushTap
	}
	pr.nodeB, err = communix.NewNode(communix.NodeConfig{
		Dial: tapDial(pr.addrs[1], onRead, nil), Subscribe: true,
		App: pr.fx.view, AppKey: pr.fx.appName, Policy: communix.RecoverBreak,
		OnSignatures: pr.onB,
	})
	if err != nil {
		return 0, 0, err
	}
	pr.mu.Lock()
	ready := pr.bReady
	pr.mu.Unlock()
	if ready != nil {
		if err := waitFor(ready, "B's initial sync"); err != nil {
			return 0, 0, err
		}
	}
	setup = since(t0)
	if got := pr.nodeB.History().Len(); got != protectValidPre {
		return 0, 0, fmt.Errorf("B installed %d preloaded signatures, want %d", got, protectValidPre)
	}
	return setup, catchup, nil
}

// cursorTap signals follower f's catch-up when it reports a cursor at
// the preload's length.
func (pr *protectRun) cursorTap(f int) func(frame, time.Time) {
	ch := pr.caught[f]
	var once sync.Once
	return func(fr frame, _ time.Time) {
		if fr.Type == wire.MsgCursor && fr.Cursor >= protectPreload {
			once.Do(func() { close(ch) })
		}
	}
}

// replTap stamps replication pages reaching B's follower (server 1).
func (pr *protectRun) replTap(server int) func(frame, time.Time) {
	if pr.st == nil || server != 1 {
		return nil
	}
	return func(fr frame, at time.Time) {
		if len(fr.Entries) > 0 {
			pr.st.mu.Lock()
			markRange(pr.st.repl, fr.Next, len(fr.Entries), at)
			pr.st.mu.Unlock()
		}
	}
}

// pushTap stamps PUSH frames reaching B.
func (pr *protectRun) pushTap(fr frame, at time.Time) {
	if fr.Type == wire.MsgPush && len(fr.Sigs) > 0 {
		pr.st.mu.Lock()
		markRange(pr.st.push, fr.Next, len(fr.Sigs), at)
		pr.st.mu.Unlock()
	}
}

// aWrite stamps A's ADD frames; aRead stamps their acknowledgements.
func (pr *protectRun) aWrite(fr frame, at time.Time) {
	if fr.Type != wire.MsgAdd {
		return
	}
	s, err := sig.Decode(fr.Sig)
	if err != nil {
		return
	}
	id := s.ID()
	pr.st.mu.Lock()
	pr.st.write[id] = at
	pr.st.reqSig[fr.ID] = id
	pr.st.mu.Unlock()
}

func (pr *protectRun) aRead(fr frame, at time.Time) {
	if fr.ID == 0 || fr.Status != wire.StatusOK {
		return
	}
	pr.st.mu.Lock()
	if id, ok := pr.st.reqSig[fr.ID]; ok {
		pr.st.ack[id] = at
		pr.st.index[id] = fr.Next
	}
	pr.st.mu.Unlock()
}

func (pr *protectRun) onDeadlock(d communix.Deadlock) {
	at := time.Now()
	id := d.Signature.ID()
	pr.st.mu.Lock()
	pr.st.detect[id] = at
	pr.st.mu.Unlock()
}

// startA brings up node A against the primary and waits for its first
// sync, outside any timed region.
func (pr *protectRun) startA() error {
	pr.aReady = make(chan struct{})
	ready := pr.aReady
	cfg := communix.NodeConfig{
		Dial: tapDial(pr.addrs[0], nil, nil), Token: pr.fx.tokenA,
		Policy: communix.RecoverBreak, OnSignatures: pr.onA,
	}
	if pr.st != nil {
		cfg.Dial = tapDial(pr.addrs[0], pr.aRead, pr.aWrite)
		cfg.OnDeadlock = pr.onDeadlock
	}
	var err error
	if pr.nodeA, err = communix.NewNode(cfg); err != nil {
		return err
	}
	return waitFor(ready, "A's initial sync")
}

func (pr *protectRun) close() {
	if pr.nodeA != nil {
		pr.nodeA.Close()
	}
	if pr.nodeB != nil {
		pr.nodeB.Close()
	}
	for i := len(pr.srvs) - 1; i >= 0; i-- {
		if pr.srvs[i] != nil {
			pr.srvs[i].Close()
			<-pr.served[i]
		}
	}
	*pr = protectRun{fx: pr.fx, dir: pr.dir, st: pr.st, tidBase: pr.tidBase}
}

// deadlock drives trap tr's deadlock on A and reports an error unless
// exactly one of the two acquisitions was denied.
func (pr *protectRun) deadlock(tr trap, tid dimmunix.ThreadID) error {
	rt := pr.nodeA.Runtime()
	x, y := rt.NewLock("x"), rt.NewLock("y")
	held := make(chan error, 2)
	start := make(chan struct{})
	done := make(chan error, 2)
	run := func(tid dimmunix.ThreadID, first, second *dimmunix.Lock, path bytecode.LockPath) {
		if err := rt.Acquire(tid, first, path.Outer); err != nil {
			held <- err
			done <- err
			return
		}
		held <- nil
		<-start
		err := rt.Acquire(tid, second, path.Inner)
		if err == nil {
			err = rt.Release(tid, second)
		}
		done <- errors.Join(err, rt.Release(tid, first))
	}
	go run(tid, x, y, tr.p)
	go run(tid+1, y, x, tr.q)
	var errs []error
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			errs = append(errs, err)
		}
	}
	close(start)
	denied := 0
	for i := 0; i < 2; i++ {
		err := <-done
		if errors.Is(err, communix.ErrDeadlock) {
			denied++
		} else if err != nil {
			errs = append(errs, err)
		}
	}
	if denied != 1 {
		errs = append(errs, fmt.Errorf("%d acquisitions denied, want 1", denied))
	}
	return errors.Join(errs...)
}

// window runs one open-loop window of ticks. It returns every tick's
// due and install times (installed is zero for a tick B never
// protected), the generator's lateness in ms, and B's replay bursts.
func (pr *protectRun) window(ticks []trap) (res []pendingTick, late, replays samples) {
	pr.mu.Lock()
	pr.histB = pr.nodeB.History()
	pr.pending = map[int]*pendingTick{}
	pr.ticking = true
	pr.drained = make(chan struct{})
	drained := pr.drained
	pr.mu.Unlock()

	var stopReplay atomic.Bool
	replayDone := make(chan samples, 1)
	go func() { replayDone <- pr.replayB(&stopReplay) }()

	interval := time.Second / protectRate
	var wg sync.WaitGroup
	late = openLoop(time.Now().Add(interval), interval, len(ticks), func(i int, due time.Time) {
		tr := ticks[i]
		pr.mu.Lock()
		pr.pending[i] = &pendingTick{id: tr.id, due: due}
		pr.mu.Unlock()
		wg.Add(1)
		pr.tidBase += 2
		go func(tid dimmunix.ThreadID) {
			defer wg.Done()
			if err := pr.deadlock(tr, tid); err != nil {
				pr.tickFails.Add(1)
			}
		}(pr.tidBase)
	})
	wg.Wait()
	pr.mu.Lock()
	pr.ticking = false
	open := 0
	for _, p := range pr.pending {
		if !p.done {
			open++
		}
	}
	if open == 0 && pr.drained != nil {
		close(pr.drained)
		pr.drained = nil
	}
	pr.mu.Unlock()
	select {
	case <-drained:
	case <-time.After(protectWait):
	}
	stopReplay.Store(true)
	replays = <-replayDone

	pr.mu.Lock()
	defer pr.mu.Unlock()
	res = make([]pendingTick, len(ticks))
	for i, p := range pr.pending {
		res[i] = *p
	}
	pr.pending = nil
	return res, late, replays
}

// openLoop calls fire for ticks 0..n-1 at start + i×interval. It never
// waits for an earlier tick's work (fire must hand it off), so a slow
// system cannot slow the schedule down; it returns how late, in ms, each
// tick was fired.
func openLoop(start time.Time, interval time.Duration, n int, fire func(i int, due time.Time)) samples {
	late := make(samples, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due))/1e6)
		fire(i, due)
	}
	return late
}

// B's replayer runs bursts of replayBatch lock paths with replayIdle
// between bursts: an application thread that also waits on other
// things. In one process a thread replaying without pause would hold
// the pipeline's goroutines — which stand for three other machines —
// behind it on the shared processors.
const (
	replayBatch = 256
	replayIdle  = time.Millisecond
)

// replayB replays lock paths on B (one goroutine, nested acquisitions)
// until stop is set, and returns each burst's duration in microseconds.
func (pr *protectRun) replayB(stop *atomic.Bool) samples {
	var paths []bytecode.LockPath
	for _, tr := range pr.fx.traps {
		paths = append(paths, tr.p, tr.q)
	}
	rt := pr.nodeB.Runtime()
	outer, inner := rt.NewLock("replay-outer"), rt.NewLock("replay-inner")
	const tid = dimmunix.ThreadID(1 << 40)
	var bursts samples
	for i := 0; !stop.Load(); {
		t0 := time.Now()
		for end := i + replayBatch; i < end; i++ {
			lp := paths[i%len(paths)]
			err := rt.Acquire(tid, outer, lp.Outer)
			if err == nil {
				if err = rt.Acquire(tid, inner, lp.Inner); err == nil {
					err = rt.Release(tid, inner)
				}
				err = errors.Join(err, rt.Release(tid, outer))
			}
			if err != nil {
				pr.tickFails.Add(1)
			}
		}
		bursts = append(bursts, float64(time.Since(t0))/1e3)
		time.Sleep(replayIdle)
	}
	return bursts
}

// replayTrap runs trap tr on B: thread 1 takes its outer lock, thread 2
// must yield at its outer acquisition, thread 1 completes, thread 2
// follows. B must neither deadlock nor skip the yield.
func (pr *protectRun) replayTrap(tr trap, tid dimmunix.ThreadID) error {
	rt := pr.nodeB.Runtime()
	x, y := rt.NewLock("trap-x"), rt.NewLock("trap-y")
	before := rt.Stats()
	if err := rt.Acquire(tid, x, tr.p.Outer); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		if err := rt.Acquire(tid+1, y, tr.q.Outer); err != nil {
			done <- err
			return
		}
		err := rt.Acquire(tid+1, x, tr.q.Inner)
		if err == nil {
			err = rt.Release(tid+1, x)
		}
		done <- errors.Join(err, rt.Release(tid+1, y))
	}()
	// Untimed correctness check: give thread 2 time to reach its yield.
	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().Yields == before.Yields && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	err := rt.Acquire(tid, y, tr.p.Inner)
	if err == nil {
		err = rt.Release(tid, y)
	}
	err = errors.Join(err, rt.Release(tid, x), <-done)
	after := rt.Stats()
	if after.Deadlocks != before.Deadlocks {
		err = errors.Join(err, errors.New("B deadlocked on an installed trap"))
	}
	if after.Yields == before.Yields {
		err = errors.Join(err, errors.New("B did not yield on an installed trap"))
	}
	return err
}

// runProtect runs the protect phase.
func runProtect(cfg phaseConfig) (*phaseOut, error) {
	out := &phaseOut{e2e: metrics{}, layers: metrics{}}
	r := rand.New(rand.NewSource(cfg.seed))
	perWindow := protectWarmup + int(cfg.measure.Seconds()*protectRate)
	windows := 1
	if cfg.trace {
		windows = 2
	}
	fx, err := buildProtectFixture(r, cfg.dir, windows*perWindow)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	pr := &protectRun{fx: fx, dir: cfg.dir, tidBase: 1000}
	defer pr.close()
	var catchups samples
	for i := 0; cfg.setupAgain(out.setup); i++ {
		if i > 0 {
			pr.close()
		}
		setup, catchup, err := pr.start(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, setup)
		catchups = append(catchups, catchup)
	}
	if err := pr.startA(); err != nil {
		return nil, err
	}
	out.logf("%d-construct application; cell preloaded with %d signatures (%d valid for the application); set-up %.3fs (followers caught up after %.3fs)",
		2*len(fx.traps)+2*len(fx.valid), protectPreload, protectValidPre, median(out.setup), median(catchups))

	_, ttpU, lateU, opsU := pr.measureWindow(out, fx.traps[:perWindow])
	ttpD := summarize(ttpU, 99)
	out.e2e.set("ttp_p50_ms", ttpD.p50, "ms")
	if cfg.trace {
		// The tail is reported without a bound: about one tick in twenty
		// lands in a garbage-collection mark phase or a scheduler stall,
		// so the p95 sits on the edge of that population and moved by a
		// third from run to run.
		ttpD.reportTail(out.layers, "protect.ttp", "ms")
		out.layers.set("protect.ttp_samples", float64(ttpD.n), "count")
		// So is B's replay rate, a sub-microsecond CPU loop interleaved
		// with the pipeline, whose ten-run spread reached 0.31.
		out.layers.set("protect.replay_ops_per_s", opsU, "ops/s")
	}
	p, v, _ := tail(lateU.sorted(), 99)
	out.logf("%d detections at %d/s: ttp p50 %.3fms, p%d %.3fms; generator lateness p%d %.3fms, max %.3fms",
		ttpD.n, protectRate, ttpD.p50, ttpD.tailP, ttpD.tail, p, v, percentile(lateU.sorted(), 100))

	if cfg.trace {
		pr.st = newStamps()
		// The taps ride the Dial hooks, so the traced window runs on a
		// fresh cell and fresh nodes.
		pr.close()
		if _, _, err := pr.start(len(out.setup)); err != nil {
			return nil, err
		}
		if err := pr.startA(); err != nil {
			return nil, err
		}
		if err := protectTrace(out, pr, fx.traps[perWindow:], ttpD.p50, catchups); err != nil {
			return nil, err
		}
	}

	// B replays a seeded sample of the traps its current history holds.
	for i := 0; i < protectTraps; i++ {
		tr := fx.traps[(windows-1)*perWindow+protectWarmup+r.Intn(perWindow-protectWarmup)]
		pr.tidBase += 2
		out.attempted++
		if err := pr.replayTrap(tr, pr.tidBase); err != nil {
			out.fail(1, "trap replay on B: %v", err)
		}
	}
	out.heapMB = liveHeapMB()
	return out, nil
}

// measureWindow runs one window and applies its correctness gates. It
// returns the measured ticks (the warm-up ones dropped), their
// time-to-protection in ms, the generator's
// lateness and B's replay rate.
func (pr *protectRun) measureWindow(out *phaseOut, ticks []trap) (res []pendingTick, ttp, late samples, opsPerS float64) {
	before := pr.tickFails.Load()
	res, late, replays := pr.window(ticks)
	out.attempted += int64(len(ticks)) + int64(len(replays))*replayBatch
	out.fail(pr.tickFails.Load()-before, "deadlocks not detected as planned, or B replay errors")
	missing := 0
	for i, p := range res {
		switch {
		case !p.done:
			missing++
		case i >= protectWarmup:
			ttp = append(ttp, float64(p.installed.Sub(p.due))/1e6)
		}
	}
	out.fail(int64(missing), "detected signatures never installed on B")
	// B's rate while replaying: paths per second of burst time.
	busy := 0.0
	for _, us := range replays {
		busy += us
	}
	return res[protectWarmup:], ttp, late[protectWarmup:], float64(len(replays)*replayBatch) / (busy / 1e6)
}

// protectTrace runs a traced window on a fresh cell and derives the
// per-layer metrics: the ttp blocking path split at the stamps the taps
// and callbacks take, and probes replaying the signatures B received
// through repo.Append, the agent and History.Add.
func protectTrace(out *phaseOut, pr *protectRun, ticks []trap, untracedP50 float64, catchups samples) error {
	rtB := pr.nodeB.Runtime()
	d0, f0 := rtB.RefreshCounts()
	dn0, _ := rtB.RefreshNanos()
	res, ttpT, lateT, _ := pr.measureWindow(out, ticks)
	d1, f1 := rtB.RefreshCounts()
	dn1, _ := rtB.RefreshNanos()
	if d1 > d0 {
		out.layers.set("dimmunix.refresh_delta_us", float64(dn1-dn0)/float64(d1-d0)/1e3, "us")
	} else {
		out.fail(1, "B ran no delta refresh while installs landed")
	}
	out.layers.set("dimmunix.refresh_full", float64(f1-f0), "count")
	out.layers.set("server.catchup_s", median(catchups), "s")
	out.layers.set("protect.gen_late_max_ms", percentile(lateT.sorted(), 100), "ms")

	st := pr.st
	st.mu.Lock()
	sp := spanSet{}
	var incomplete int64
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	for j, p := range res {
		id := ticks[protectWarmup+j].id
		detect, ok1 := st.detect[id]
		write, ok2 := st.write[id]
		ack, ok3 := st.ack[id]
		idx, ok4 := st.index[id]
		repl, ok5 := st.repl[idx]
		push, ok6 := st.push[idx]
		if !(p.done && ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
			incomplete++
			continue
		}
		sp.add("dimmunix.detect_ms", ms(p.due, detect))
		sp.add("plugin.queue_ms", ms(detect, write))
		sp.add("server.replicate_ms", ms(write, repl))
		sp.add("client.push_ms", ms(repl, push))
		sp.add("agent.install_ms", ms(push, p.installed))
		sp.add("client.upload_ms", ms(write, ack))
	}
	st.mu.Unlock()
	out.fail(incomplete, "traced ticks whose stamps are incomplete (a tap missed a frame)")
	if len(sp["client.upload_ms"]) == 0 {
		return errors.New("no traced tick has complete stamps")
	}

	// The blocking path: due → A detects → A writes the ADD → the page
	// reaches B's follower → the PUSH reaches B → B's history holds it.
	// The ADD's quorum acknowledgement (client.upload_ms) runs beside it.
	p50 := untracedP50
	sum := 0.0
	line := fmt.Sprintf("ttp p50 %.3fms (untraced) =", p50)
	for _, name := range []string{"dimmunix.detect_ms", "plugin.queue_ms", "server.replicate_ms", "client.push_ms", "agent.install_ms"} {
		v := median(sp[name])
		out.layers.set(name, v, "ms")
		sum += v
		line += fmt.Sprintf(" %s %.3f (%.0f%%) +", name, v, 100*v/p50)
	}
	out.layers.set("client.upload_ms", median(sp["client.upload_ms"]), "ms")
	out.layers.set("protect.ttp_unattributed_ms", p50-sum, "ms")
	out.layers.set("protect.trace_overhead_pct", 100*(median(ttpT)/p50-1), "%")
	out.logf("%s unattributed %.3f (%.0f%%); upload with quorum ack %.3fms", line, p50-sum, 100*(p50-sum)/p50, median(sp["client.upload_ms"]))
	return protectProbes(out, pr, len(ticks))
}

// protectProbes replays the primary's log — the signatures B received —
// one at a time through repo.Append and the agent's startup pass, and
// the tick signatures through History.Add, timing each.
func protectProbes(out *phaseOut, pr *protectRun, ticks int) error {
	var raws []json.RawMessage
	for from, more := 1, true; more; {
		var page []json.RawMessage
		page, from, more = pr.srvs[0].Store().GetPage(from, wire.MaxGetBatch, wire.MaxGetBytes)
		raws = append(raws, page...)
		if len(page) == 0 {
			break
		}
	}
	if len(raws) != protectPreload+ticks {
		return fmt.Errorf("primary holds %d signatures, want %d", len(raws), protectPreload+ticks)
	}
	rp, err := repo.Open("")
	if err != nil {
		return err
	}
	h := dimmunix.NewHistory()
	ag, err := agent.New(agent.Config{App: pr.fx.view, AppKey: "probe", Repo: rp, History: h})
	if err != nil {
		return err
	}
	h2 := dimmunix.NewHistory()
	var appendUS, validateUS, addUS samples
	inspected, accepted := 0, 0
	for i, raw := range raws {
		t0 := time.Now()
		if err := rp.Append([]json.RawMessage{raw}, i+2); err != nil {
			return err
		}
		t1 := time.Now()
		rep, err := ag.RunStartup()
		if err != nil {
			return err
		}
		t2 := time.Now()
		inspected += rep.Inspected
		accepted += rep.Accepted
		if i < protectPreload {
			continue
		}
		appendUS = append(appendUS, float64(t1.Sub(t0))/1e3)
		validateUS = append(validateUS, float64(t2.Sub(t1))/1e3)
		s, err := sig.Decode(raw)
		if err != nil {
			return err
		}
		t3 := time.Now()
		added := h2.Add(s)
		addUS = append(addUS, float64(time.Since(t3))/1e3)
		if !added {
			out.fail(1, "History.Add probe did not add a tick signature")
		}
	}
	// The agent probe must reach install for exactly the valid signatures.
	if accepted != protectValidPre+ticks || inspected != len(raws) {
		out.fail(1, "agent probe accepted %d of %d, want %d", accepted, inspected, protectValidPre+ticks)
	}
	out.layers.set("repo.append_us", median(appendUS), "us")
	out.layers.set("agent.validate_us", median(validateUS), "us")
	out.layers.set("agent.accept_ratio", float64(accepted)/float64(inspected), "ratio")
	out.layers.set("dimmunix.history_add_us", median(addUS), "us")
	return nil
}
