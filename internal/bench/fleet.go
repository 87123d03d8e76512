// Fleet experiment: trace-driven load against one server from a fleet
// of lightweight in-process subscriber clients, measuring the
// sessions × throughput × distribution-latency surface that the pooled
// pusher subsystem exists to improve. Each client is one goroutine
// speaking real protocol v2 over real TCP — SUBSCRIBE, PUSH ingestion,
// catch-up GET drains — and tracks its own contiguous view of the log,
// so lost signatures surface as hard errors, not noise. Signature
// uploads are committed through the server's direct path by a single
// loader goroutine paced by a synthesized trace (trace.go), which also
// injects subscriber churn storms.
//
// Distribution latency is commit-to-delivery: the loader stamps a
// wall-clock time just before each commit, and a client samples
// now−stamp when the signature first reaches it (same process, same
// clock). The latency histogram is exponential (µs buckets), merged
// across the fleet at the end.
package bench

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/ids"
	"communix/internal/server"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"

	"math/rand"
)

// DefaultFleetSLO is the distribution-latency budget a cell must meet
// at p99 to count as sustained.
const DefaultFleetSLO = 250 * time.Millisecond

// Fleet transports.
const (
	// FleetTransportTCP runs clients over real loopback TCP sockets.
	// Realistic per-connection cost, but the box's file-descriptor
	// budget and syscall throughput bound the fleet size.
	FleetTransportTCP = "tcp"
	// FleetTransportPipe runs clients over synchronous in-process pipes
	// (net.Pipe behind a dialable Listener — the bufconn technique).
	// No file descriptors and no socket syscalls, so the measurement
	// isolates the server's pusher architecture instead of the kernel's
	// loopback path, and the fleet can scale past the fd limit.
	FleetTransportPipe = "pipe"
)

// Fleet loader pacings.
const (
	// FleetPacingSmooth spreads each slot's adds evenly across the slot.
	FleetPacingSmooth = "smooth"
	// FleetPacingBurst commits each slot's adds back-to-back at the slot
	// boundary.
	FleetPacingBurst = "burst"
)

// pipeListener is an in-process net.Listener whose Dial hands the
// server half of a net.Pipe to Accept.
type pipeListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// FleetConfig parameterizes one fleet cell: one subscriber count under
// one trace.
type FleetConfig struct {
	// Transport is FleetTransportTCP (default) or FleetTransportPipe.
	Transport string
	// Subscribers is the long-lived measured subscriber population
	// (default 50).
	Subscribers int
	// Trace is the load profile (required; see Synthesize).
	Trace []TraceSlot
	// GetBatch / PushMaxLag / MaxSubs are passed to the server.
	GetBatch   int
	PushMaxLag int
	MaxSubs    int
	// Pushers sizes the server's pusher pool (0 = GOMAXPROCS).
	Pushers int
	// Replicas runs this many follower replicas (server.Config.FollowDial
	// over the cell's transport) and spreads the measured subscribers and
	// churn round-robin across them instead of the primary — the
	// replicated-deployment topology, where the primary takes uploads and
	// ships each page once per follower while the followers carry the
	// subscriber fan-out. 0 = single-server cell (every subscriber on the
	// primary). Distribution latency stays commit-to-delivery, so the
	// replication hop is inside the measured budget, not excused from it.
	Replicas int
	// Pacing is FleetPacingSmooth (default: adds spread evenly across
	// each slot) or FleetPacingBurst (each slot's adds committed
	// back-to-back at the slot boundary, modelling the bursty arrivals
	// deadlock signatures actually have — a process hitting a deadlock
	// pattern reports a batch, not a drip). Burst pacing exercises the
	// page-coalescing path: subscribers receive multi-signature pages,
	// so distribution cost per signature reflects page encoding, not
	// per-frame rendezvous.
	Pacing string
	// SLO is the p99 distribution-latency budget for "sustained"
	// (default DefaultFleetSLO).
	SLO time.Duration
	// TimeoutSec bounds the whole cell (default 120).
	TimeoutSec int
	// Repeat re-runs a cell that misses its SLO up to this many times
	// (surface runs only) and reports the cleanest run — standard
	// best-of-N against scheduler/neighbor noise on a shared box. A run
	// with gap errors or failed quiesce is reported immediately:
	// correctness failures are never retried away. Default 1.
	Repeat int
}

// FleetCellResult is one cell of the fleet surface.
type FleetCellResult struct {
	Transport   string `json:"transport"`
	Pacing      string `json:"pacing"`
	Subscribers int    `json:"subscribers"`
	// Replicas is the follower count serving the subscribers (0 = the
	// primary serves them directly).
	Replicas int `json:"replicas"`
	// PusherWorkers is the pool size driving all subscribers — the
	// "goroutines spent pushing" axis of the scaling claim.
	PusherWorkers int `json:"pusher_workers"`
	// OfferedRPS is the trace's upload rate; AchievedRPS what the loader
	// actually sustained (lower = the server applied backpressure).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	TotalSigs   int     `json:"total_sigs"`
	// Deliveries counts signature arrivals across the fleet (TotalSigs ×
	// Subscribers when fully quiesced); DeliveriesPerSec is the server's
	// aggregate distribution throughput.
	Deliveries       int64   `json:"deliveries"`
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`
	// Distribution latency percentiles (commit → client delivery).
	LatencySamples int64   `json:"latency_samples"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP95MS   float64 `json:"latency_p95_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencyMaxMS   float64 `json:"latency_max_ms"`
	// Markers counts catch-up downgrades observed by measured clients.
	Markers int64 `json:"markers"`
	// GapErrors counts clients that observed a non-contiguous frame
	// (lost signatures) — must be 0.
	GapErrors int64 `json:"gap_errors"`
	// Goroutine counts at the three measurement points: before any
	// client, all connected (HELLO done, no SUBSCRIBE), all subscribed.
	GoroutinesBase       int `json:"goroutines_base"`
	GoroutinesConnected  int `json:"goroutines_connected"`
	GoroutinesSubscribed int `json:"goroutines_subscribed"`
	// GoroutinesPerSession is (connected−base)/Subscribers: the
	// per-session goroutine cost on the server (+ the accept machinery):
	// ≈ 2 (reader+writer).
	GoroutinesPerSession float64 `json:"goroutines_per_session"`
	// SubscribeGoroutineDelta is (subscribed−connected) minus the fleet's
	// own reader goroutines: what SUBSCRIBing every client added on the
	// server. Flat (≈0) — pushers exist before SUBSCRIBE — but reported
	// so the flatness is measured, not assumed.
	SubscribeGoroutineDelta int `json:"subscribe_goroutine_delta"`
	// Quiesced: every measured subscriber converged to the full log
	// within the timeout.
	Quiesced bool `json:"quiesced"`
	// Sustained: quiesced, no gaps, and p99 within the SLO.
	Sustained bool    `json:"sustained"`
	SLOMS     float64 `json:"slo_ms"`
	ElapsedNS int64   `json:"elapsed_ns"`
}

// fleetBuckets is the exponential latency histogram size: bucket b
// counts samples in [2^(b-1), 2^b) µs, so 40 buckets span beyond an
// hour.
const fleetBuckets = 40

func fleetBucket(d int64) int {
	us := d / int64(time.Microsecond)
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= fleetBuckets {
		b = fleetBuckets - 1
	}
	return b
}

// fleetBucketMS is bucket b's upper bound in milliseconds (the
// percentile estimate).
func fleetBucketMS(b int) float64 {
	return float64(uint64(1)<<uint(b)) / 1000
}

// commitClock maps each log index to the wall-clock instant just before
// its commit. The loader stamps, clients read — atomically, since they
// race by design.
type commitClock struct {
	times []int64
}

func (cc *commitClock) stamp(idx int) { atomic.StoreInt64(&cc.times[idx-1], time.Now().UnixNano()) }
func (cc *commitClock) get(idx int) int64 {
	if idx < 1 || idx > len(cc.times) {
		return 0
	}
	return atomic.LoadInt64(&cc.times[idx-1])
}

// fleetClient is one measured subscriber: a single goroutine ingesting
// PUSH frames and catch-up GET drains over one v2 session, tracking a
// contiguous log prefix. Frames are read raw and run through the
// fleetscan scanner (fleetscan.go) — full JSON decoding in thousands of
// in-process clients would make the harness, not the server, the
// bottleneck of the box.
type fleetClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // reusable payload buffer

	have    atomic.Int64 // contiguous log prefix held (coordinator polls)
	frames  int64
	hist    [fleetBuckets]int64
	maxNS   int64
	sloNS   int64 // exact-count threshold (histogram buckets are 2× coarse)
	overSLO int64
	markers int64
	gap     bool
	err     error
	done    chan struct{}
}

// fastScanSample is the full-scan sampling interval: one frame in every
// fastScanSample per client is byte-walked end to end (signature count
// cross-checked against the cursor); the rest take the O(1) head+tail
// path. Small frames (acks, markers, short pages) are always fully
// scanned — they are cheap and they are where the protocol edges live.
const (
	fastScanSample   = 16
	fastScanMinBytes = 256
)

func newFleetClient(conn net.Conn, slo time.Duration) *fleetClient {
	return &fleetClient{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		bw:    bufio.NewWriter(conn),
		sloNS: int64(slo),
		done:  make(chan struct{}),
	}
}

// send writes one request frame. Only ever called from one goroutine at
// a time (the coordinator during setup, the read loop afterwards).
func (fc *fleetClient) send(v any) error {
	if err := wire.WriteMessage(fc.bw, v); err != nil {
		return err
	}
	return fc.bw.Flush()
}

// readFrame reads one raw frame and scans the harness fields out of it.
func (fc *fleetClient) readFrame() (fleetFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
		return fleetFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > wire.MaxFrameSize {
		return fleetFrame{}, fmt.Errorf("frame of %d bytes", n)
	}
	if cap(fc.buf) < int(n) {
		fc.buf = make([]byte, n)
	}
	fc.buf = fc.buf[:n]
	if _, err := io.ReadFull(fc.br, fc.buf); err != nil {
		return fleetFrame{}, err
	}
	fc.frames++
	if n >= fastScanMinBytes && fc.frames%fastScanSample != 0 {
		if f, ok := fastScanFrame(fc.buf); ok {
			return f, nil
		}
	}
	return scanFrame(fc.buf)
}

// hello performs the v2 handshake.
func (fc *fleetClient) hello() error {
	if err := fc.send(wire.NewHello(1)); err != nil {
		return err
	}
	ack, err := fc.readFrame()
	if err != nil {
		return err
	}
	if !ack.ok() || ack.version != wire.V2 {
		return fmt.Errorf("HELLO ack %+v", ack)
	}
	return nil
}

// subscribe sends SUBSCRIBE and waits for the ack; the read loop then
// owns the connection.
func (fc *fleetClient) subscribe() error {
	if err := fc.send(wire.NewSubscribe(1, 1)); err != nil {
		return err
	}
	ack, err := fc.readFrame()
	if err != nil {
		return err
	}
	if !ack.ok() || ack.id != 1 {
		return fmt.Errorf("SUBSCRIBE ack %+v", ack)
	}
	return nil
}

func (fc *fleetClient) loop(clock *commitClock) {
	defer close(fc.done)
	getting := false
	for {
		f, err := fc.readFrame()
		if err != nil {
			fc.err = err // teardown close or genuine failure; coordinator judges by `have`
			return
		}
		switch {
		case f.push && f.more && f.nsigs == 0:
			// Catch-up marker (lag downgrade or quota shed): drain by
			// paginated GETs, one in flight at a time.
			fc.markers++
			if !getting {
				getting = true
				if err := fc.send(wire.Request{Type: wire.MsgGet, ID: 2, From: int(fc.have.Load()) + 1}); err != nil {
					fc.err = err
					return
				}
			}
		case f.push:
			if !fc.ingest(f, clock) {
				return
			}
		case f.id == 2:
			if !f.ok() {
				fc.err = fmt.Errorf("catch-up GET: %+v", f)
				return
			}
			if !fc.ingest(f, clock) {
				return
			}
			getting = false
			if f.more {
				getting = true
				if err := fc.send(wire.Request{Type: wire.MsgGet, ID: 2, From: f.next}); err != nil {
					fc.err = err
					return
				}
			}
		}
	}
}

// ingest folds one data frame into the client's contiguous view,
// sampling distribution latency for every first-seen signature. A
// fully-scanned frame (nsigs ≥ 0) starting past have+1 is a
// lost-signature gap — fatal. Fast-scanned frames (nsigs < 0) carry no
// count; the server's page contract says they start at the session
// cursor ≤ have+1, and the sampled full scans plus the churn soak test
// verify that contract.
func (fc *fleetClient) ingest(f fleetFrame, clock *commitClock) bool {
	if f.nsigs == 0 {
		return true
	}
	have := int(fc.have.Load())
	start := have + 1
	if f.nsigs > 0 {
		start = f.next - f.nsigs
		if start > have+1 {
			fc.gap = true
			fc.err = fmt.Errorf("gap: frame covers [%d,%d) with only %d held", start, f.next, have)
			return false
		}
	}
	if f.next-1 <= have {
		return true // stale overlap (push/GET crossover), already held
	}
	now := time.Now().UnixNano()
	for idx := have + 1; idx < f.next; idx++ {
		if idx < start {
			continue
		}
		if ts := clock.get(idx); ts > 0 {
			d := now - ts
			fc.hist[fleetBucket(d)]++
			if d > fc.maxNS {
				fc.maxNS = d
			}
			if fc.sloNS > 0 && d > fc.sloNS {
				fc.overSLO++
			}
		}
	}
	fc.have.Store(int64(f.next - 1))
	return true
}

// churnPool owns the storm subscribers: fire-and-forget sessions that
// connect, SUBSCRIBE, and read until disconnected by a later storm (or
// cell teardown).
type churnPool struct {
	dial     func() (net.Conn, error)
	deadline time.Time
	mu       sync.Mutex
	conns    []net.Conn
	wg       sync.WaitGroup
}

func (cp *churnPool) storm(connects, disconnects int) {
	cp.mu.Lock()
	n := disconnects
	if n > len(cp.conns) {
		n = len(cp.conns)
	}
	victims := cp.conns[:n]
	cp.conns = append([]net.Conn(nil), cp.conns[n:]...)
	cp.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	for i := 0; i < connects; i++ {
		cp.wg.Add(1)
		go cp.one()
	}
}

func (cp *churnPool) one() {
	defer cp.wg.Done()
	conn, err := cp.dial()
	if err != nil {
		return
	}
	_ = conn.SetDeadline(cp.deadline)
	cp.mu.Lock()
	cp.conns = append(cp.conns, conn)
	cp.mu.Unlock()
	// Churn subscribers exist purely as load on the server's session and
	// pusher machinery; they read and discard frames without parsing.
	br := bufio.NewReaderSize(conn, 64<<10)
	if wire.WriteMessage(conn, wire.NewHello(1)) != nil {
		return
	}
	var hdr [4]byte
	discard := func() bool {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return false
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		_, err := io.CopyN(io.Discard, br, n)
		return err == nil
	}
	if !discard() {
		return
	}
	if wire.WriteMessage(conn, wire.NewSubscribe(1, 1)) != nil {
		return
	}
	for discard() {
	}
}

func (cp *churnPool) closeAll() {
	cp.mu.Lock()
	conns := cp.conns
	cp.conns = nil
	cp.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	cp.wg.Wait()
}

// Fleet runs one fleet cell: a server, a measured subscriber population,
// churn per the trace, and a paced upload loader; it reports the cell's
// throughput/latency/goroutine outcome.
func Fleet(cfg FleetConfig) (FleetCellResult, error) {
	transport := cfg.Transport
	if transport == "" {
		transport = FleetTransportTCP
	}
	if transport != FleetTransportTCP && transport != FleetTransportPipe {
		return FleetCellResult{}, fmt.Errorf("bench: fleet: unknown transport %q", transport)
	}
	pacing := cfg.Pacing
	if pacing == "" {
		pacing = FleetPacingSmooth
	}
	if pacing != FleetPacingSmooth && pacing != FleetPacingBurst {
		return FleetCellResult{}, fmt.Errorf("bench: fleet: unknown pacing %q", pacing)
	}
	subscribers := cfg.Subscribers
	if subscribers <= 0 {
		subscribers = 50
	}
	if len(cfg.Trace) == 0 {
		return FleetCellResult{}, fmt.Errorf("bench: fleet: empty trace")
	}
	slo := cfg.SLO
	if slo <= 0 {
		slo = DefaultFleetSLO
	}
	timeout := time.Duration(cfg.TimeoutSec) * time.Second
	if cfg.TimeoutSec <= 0 {
		timeout = 120 * time.Second
	}
	deadline := time.Now().Add(timeout)

	srv, err := server.New(server.Config{
		Key:        e2eKey,
		MaxPerDay:  1 << 30,
		GetBatch:   cfg.GetBatch,
		PushMaxLag: cfg.PushMaxLag,
		MaxSubs:    cfg.MaxSubs,
		Pushers:    cfg.Pushers,
	})
	if err != nil {
		return FleetCellResult{}, fmt.Errorf("bench: fleet: %w", err)
	}
	defer srv.Close()
	var dial func() (net.Conn, error)
	switch transport {
	case FleetTransportTCP:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return FleetCellResult{}, fmt.Errorf("bench: fleet: %w", err)
		}
		go srv.Serve(l)
		addr := l.Addr().String()
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	case FleetTransportPipe:
		pl := newPipeListener()
		go srv.Serve(pl)
		dial = pl.Dial
	}

	// Replicated topology: followers replicate from the primary over the
	// same transport and take over the subscriber-facing side. The
	// measured fleet (and churn) round-robins across the followers; the
	// primary keeps the upload path.
	replicas := cfg.Replicas
	if replicas < 0 {
		replicas = 0
	}
	clientDial := dial
	if replicas > 0 {
		followerDials := make([]func() (net.Conn, error), replicas)
		for i := 0; i < replicas; i++ {
			fsrv, err := server.New(server.Config{
				Key:        e2eKey,
				MaxPerDay:  1 << 30,
				GetBatch:   cfg.GetBatch,
				PushMaxLag: cfg.PushMaxLag,
				MaxSubs:    cfg.MaxSubs,
				Pushers:    cfg.Pushers,
				FollowDial: dial,
				FollowPing: time.Second,
			})
			if err != nil {
				return FleetCellResult{}, fmt.Errorf("bench: fleet: replica %d: %w", i, err)
			}
			defer fsrv.Close()
			switch transport {
			case FleetTransportTCP:
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return FleetCellResult{}, fmt.Errorf("bench: fleet: replica %d: %w", i, err)
				}
				go fsrv.Serve(l)
				addr := l.Addr().String()
				followerDials[i] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			case FleetTransportPipe:
				pl := newPipeListener()
				go fsrv.Serve(pl)
				followerDials[i] = pl.Dial
			}
		}
		var rr atomic.Int64
		clientDial = func() (net.Conn, error) {
			return followerDials[int(rr.Add(1))%replicas]()
		}
	}

	// Pre-generate the upload stream: distinct-top signatures dodge the
	// store's adjacency and duplicate rejections, so commit index equals
	// upload order (synchronous ingestion, single loader goroutine).
	// Uploads round-robin across a population of reporter identities —
	// a community is many processes, and funneling the whole trace
	// through one token would make the server's per-user admission
	// history the bottleneck (it grows with every prior upload from the
	// same user), measuring an O(n²) harness artifact instead of the
	// distribution path.
	authority, err := ids.NewAuthority(e2eKey)
	if err != nil {
		return FleetCellResult{}, fmt.Errorf("bench: fleet: %w", err)
	}
	const fleetReporters = 64
	tokens := make([]ids.Token, fleetReporters)
	for i := range tokens {
		_, tokens[i] = authority.Issue()
	}
	totalAdds := TraceAdds(cfg.Trace)
	reqs := make([]wire.Request, totalAdds)
	r := rand.New(rand.NewSource(1))
	for i := range reqs {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
		req, err := wire.NewAdd(tokens[i%fleetReporters], s)
		if err != nil {
			return FleetCellResult{}, fmt.Errorf("bench: fleet: %w", err)
		}
		reqs[i] = req
	}
	clock := &commitClock{times: make([]int64, totalAdds)}

	res := FleetCellResult{
		Transport:   transport,
		Pacing:      pacing,
		Subscribers: subscribers,
		Replicas:    replicas,
		OfferedRPS:  float64(totalAdds) / TraceDur(cfg.Trace).Seconds(),
		SLOMS:       float64(slo) / float64(time.Millisecond),
	}
	res.PusherWorkers = cfg.Pushers
	if res.PusherWorkers <= 0 {
		res.PusherWorkers = runtime.GOMAXPROCS(0)
	}

	// Measurement point 1: before any client exists.
	start := time.Now()
	res.GoroutinesBase = runtime.NumGoroutine()

	// Phase 1 — connect the measured fleet (HELLO only).
	clients := make([]*fleetClient, subscribers)
	defer func() {
		for _, fc := range clients {
			if fc != nil && fc.conn != nil {
				fc.conn.Close()
			}
		}
	}()
	for i := range clients {
		conn, err := clientDial()
		if err != nil {
			return res, fmt.Errorf("bench: fleet: client %d dial: %w", i, err)
		}
		_ = conn.SetDeadline(deadline)
		fc := newFleetClient(conn, slo)
		if err := fc.hello(); err != nil {
			conn.Close()
			return res, fmt.Errorf("bench: fleet: client %d hello: %w", i, err)
		}
		clients[i] = fc
	}
	time.Sleep(50 * time.Millisecond) // let session goroutines settle
	res.GoroutinesConnected = runtime.NumGoroutine()
	res.GoroutinesPerSession = float64(res.GoroutinesConnected-res.GoroutinesBase) / float64(subscribers)

	// Phase 2 — subscribe everyone and start the reader goroutines.
	for i, fc := range clients {
		if err := fc.subscribe(); err != nil {
			return res, fmt.Errorf("bench: fleet: client %d subscribe: %w", i, err)
		}
		go fc.loop(clock)
	}
	time.Sleep(50 * time.Millisecond)
	res.GoroutinesSubscribed = runtime.NumGoroutine()
	// Subtract the fleet's own reader goroutines: what remains is the
	// server-side cost of SUBSCRIBE itself.
	res.SubscribeGoroutineDelta = res.GoroutinesSubscribed - res.GoroutinesConnected - subscribers

	// Phase 3 — play the trace: paced uploads plus churn storms.
	churn := &churnPool{dial: clientDial, deadline: deadline}
	loaderStart := time.Now()
	idx := 0
	slotStart := loaderStart
	for _, slot := range cfg.Trace {
		if slot.Connects > 0 || slot.Disconnects > 0 {
			go churn.storm(slot.Connects, slot.Disconnects)
		}
		if slot.Adds > 0 {
			interval := time.Duration(0)
			if pacing == FleetPacingSmooth {
				interval = slot.Dur / time.Duration(slot.Adds)
			}
			for i := 0; i < slot.Adds; i++ {
				if interval > 0 {
					if d := time.Until(slotStart.Add(time.Duration(i) * interval)); d > 0 {
						time.Sleep(d)
					}
				}
				idx++
				clock.stamp(idx)
				if resp := srv.Process(reqs[idx-1]); resp.Status != wire.StatusOK {
					return res, fmt.Errorf("bench: fleet: ADD %d: %s %s", idx, resp.Status, resp.Detail)
				}
			}
		}
		slotStart = slotStart.Add(slot.Dur)
		if d := time.Until(slotStart); d > 0 {
			time.Sleep(d)
		}
	}
	loaderElapsed := time.Since(loaderStart)
	churn.closeAll()

	res.TotalSigs = srv.Store().Len()
	res.AchievedRPS = float64(totalAdds) / loaderElapsed.Seconds()

	// Phase 4 — quiesce: wait for every measured subscriber to converge
	// to the full log, then tear the fleet down and merge histograms.
	target := int64(res.TotalSigs)
	res.Quiesced = true
	for {
		lagging := 0
		for _, fc := range clients {
			if fc.have.Load() < target {
				lagging++
			}
		}
		if lagging == 0 {
			break
		}
		if time.Now().After(deadline) {
			res.Quiesced = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, fc := range clients {
		fc.conn.Close()
	}
	var merged [fleetBuckets]int64
	var overSLO int64
	for _, fc := range clients {
		<-fc.done
		res.Deliveries += fc.have.Load()
		res.Markers += fc.markers
		if fc.gap {
			res.GapErrors++
		}
		for b, n := range fc.hist {
			merged[b] += n
			res.LatencySamples += n
		}
		overSLO += fc.overSLO
		if ms := float64(fc.maxNS) / float64(time.Millisecond); ms > res.LatencyMaxMS {
			res.LatencyMaxMS = ms
		}
	}
	res.ElapsedNS = time.Since(start).Nanoseconds()
	if res.ElapsedNS > 0 {
		res.DeliveriesPerSec = float64(res.Deliveries) / (float64(res.ElapsedNS) / float64(time.Second))
	}
	res.LatencyP50MS = fleetPercentile(&merged, res.LatencySamples, 0.50)
	res.LatencyP95MS = fleetPercentile(&merged, res.LatencySamples, 0.95)
	res.LatencyP99MS = fleetPercentile(&merged, res.LatencySamples, 0.99)
	// Sustained uses an exact over-SLO sample count — the histogram's
	// power-of-two buckets would otherwise round a 170ms p99 up to a
	// 262ms bound and fail a 250ms SLO the cell actually met.
	res.Sustained = res.Quiesced && res.GapErrors == 0 &&
		res.LatencySamples > 0 && overSLO*100 <= res.LatencySamples
	return res, nil
}

// fleetBestOf runs a cell up to `repeat` times and keeps the cleanest
// run — the standard best-of-N defense against scheduler and neighbor
// noise on a shared box, which flips borderline cells between runs of
// an identical binary. Only SLO misses are retried: the first sustained
// run short-circuits, and a run with gap errors or a failed quiesce is
// returned immediately — correctness failures must never be retried
// away.
func fleetBestOf(cfg FleetConfig, repeat int) (FleetCellResult, error) {
	var best FleetCellResult
	for r := 0; r < repeat; r++ {
		cell, err := Fleet(cfg)
		if err != nil {
			return cell, err
		}
		if cell.Sustained || cell.GapErrors > 0 || !cell.Quiesced {
			return cell, nil
		}
		if r == 0 || cell.LatencyP99MS < best.LatencyP99MS ||
			(cell.LatencyP99MS == best.LatencyP99MS && cell.LatencyMaxMS < best.LatencyMaxMS) {
			best = cell
		}
	}
	return best, nil
}

// fleetPercentile estimates percentile p from the exponential histogram
// (upper bucket bound, i.e. a conservative overestimate).
func fleetPercentile(hist *[fleetBuckets]int64, samples int64, p float64) float64 {
	if samples == 0 {
		return 0
	}
	rank := int64(p * float64(samples))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range hist {
		cum += n
		if cum >= rank {
			return fleetBucketMS(b)
		}
	}
	return fleetBucketMS(fleetBuckets - 1)
}

// FleetSurfaceResult is the full experiment: cells across subscriber
// counts, plus the headline.
type FleetSurfaceResult struct {
	Trace TraceConfig `json:"trace"`
	// Repeat is the best-of-N retry budget each cell ran under (see
	// FleetConfig.Repeat) — recorded so the methodology is in the
	// artifact.
	Repeat int               `json:"repeat"`
	Cells  []FleetCellResult `json:"cells"`
	// MaxSustained is the largest subscriber population sustained within
	// the SLO — the scaling headline.
	MaxSustained int `json:"max_sustained"`
}

// FleetSurface runs one cell per subscriber count and computes the
// headline. Cells run sequentially — they share the box, so overlap
// would contaminate the measurements.
func FleetSurface(traceCfg TraceConfig, base FleetConfig, counts []int) (FleetSurfaceResult, error) {
	repeat := base.Repeat
	if repeat < 1 {
		repeat = 1
	}
	out := FleetSurfaceResult{Trace: traceCfg.Normalize(), Repeat: repeat}
	trace, err := Synthesize(traceCfg)
	if err != nil {
		return out, err
	}
	for _, n := range counts {
		cfg := base
		cfg.Subscribers = n
		cfg.Trace = trace
		cell, err := fleetBestOf(cfg, repeat)
		if err != nil {
			return out, fmt.Errorf("bench: fleet %d: %w", n, err)
		}
		out.Cells = append(out.Cells, cell)
		if cell.Sustained && n > out.MaxSustained {
			out.MaxSustained = n
		}
	}
	return out, nil
}

// WriteFleetCell prints one cell human-readably.
func WriteFleetCell(w io.Writer, c FleetCellResult) {
	status := "SUSTAINED"
	if !c.Sustained {
		status = "degraded"
	}
	fmt.Fprintf(w, "%-4s subs=%-5d pushers=%-5d rps=%6.1f/%6.1f deliver/s=%9.0f p50=%6.2fms p99=%8.2fms max=%8.2fms markers=%-4d gaps=%d g/sess=%.2f subΔ=%-3d %s\n",
		c.Transport, c.Subscribers, c.PusherWorkers, c.AchievedRPS, c.OfferedRPS,
		c.DeliveriesPerSec, c.LatencyP50MS, c.LatencyP99MS, c.LatencyMaxMS,
		c.Markers, c.GapErrors, c.GoroutinesPerSession, c.SubscribeGoroutineDelta, status)
}

// WriteFleetSurfaceJSON writes the surface as indented JSON (the
// committed BENCH_fleet.json format).
func WriteFleetSurfaceJSON(w io.Writer, res FleetSurfaceResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string             `json:"experiment"`
		Result     FleetSurfaceResult `json:"result"`
	}{Experiment: "fleet", Result: res})
}

// WriteFleetSurface prints the surface and headline.
func WriteFleetSurface(w io.Writer, res FleetSurfaceResult) {
	fmt.Fprintf(w, "fleet surface: profile=%s target=%.0f rps × %d slots of %s\n",
		res.Trace.Profile, res.Trace.TargetRPS, res.Trace.Slots, res.Trace.SlotDur)
	for _, c := range res.Cells {
		WriteFleetCell(w, c)
	}
	fmt.Fprintf(w, "max sustained within SLO: %d subscribers\n", res.MaxSustained)
}
