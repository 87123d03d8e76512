package main

// The ingest phase: the server's ADD write path (Fig. 2).
//
// A closed loop of ingestConns raw wire connections drives an
// in-process server running production defaults — synchronous ADDs, a
// durable data directory with the default batch fsync policy, the daily
// limit of 10 signatures per user — with its Clock pinned to one day so
// rate-limit verdicts cannot flip at UTC midnight. The data
// directory is preloaded with ingestPreload signatures before anything
// is timed.
//
// Each connection replays its own planned stream: many users with
// per-request tokens, most sending a few signatures, a heavy tail going
// over the daily limit, and a share of re-uploads of an earlier
// signature by another user (duplicates). A user's requests all ride one
// connection and re-uploads only name signatures from the same
// connection or the preload, so every verdict is fixed by the plan
// whatever the interleaving of the two connections.
//
// The phase runs one round per ingestRoundTime of its budget. A round
// plans ingestRoundADDs ADDs (untimed) and then sends them, so every
// run does the same work and a faster server finishes sooner; the
// server stays up across rounds and its log keeps growing.

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"communix/internal/ids"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
	"communix/internal/wire"
)

const (
	ingestPreload     = 20000
	ingestPreloadEach = 8 // preloaded signatures per preload user
	ingestConns       = 2
	ingestRoundADDs   = 6000                    // ADDs planned and sent per round
	ingestRoundTime   = 1500 * time.Millisecond // budget per round: one round per 1.5s of the phase
	ingestDupShare    = 0.10                    // requests that re-upload an earlier signature
	ingestHeavyShare  = 0.08                    // users who go over the daily limit
	ingestDupPool     = 1024                    // recent signatures per connection re-uploads pick from
)

// benchKey is the AES key the benchmark's tokens are minted under.
var benchKey = []byte("perfbench-key-16")

// pinnedNow is the server clock: one fixed instant, one fixed day.
var pinnedNow = time.Date(2026, 3, 2, 12, 0, 0, 0, time.UTC)

func pinnedClock() time.Time { return pinnedNow }

// verdict is the outcome the plan expects for one ADD.
type verdict int

const (
	vAccept verdict = iota
	vDuplicate
	vOverLimit
	vAdjacent
)

var verdictNames = [...]string{"accept", "duplicate", "over-limit", "adjacent"}

func (v verdict) String() string { return verdictNames[v] }

// planner models the server's admission rules in the order the store
// applies them: duplicate first, then the daily budget, then adjacency
// to the same user's earlier accepted signatures.
type planner struct {
	maxPerDay int
	present   map[string]bool
	used      map[ids.UserID]int
	tops      map[ids.UserID][]map[string]struct{}
}

func newPlanner(maxPerDay int) *planner {
	return &planner{
		maxPerDay: maxPerDay,
		present:   map[string]bool{},
		used:      map[ids.UserID]int{},
		tops:      map[ids.UserID][]map[string]struct{}{},
	}
}

// admit returns the verdict for one upload and applies it.
func (p *planner) admit(user ids.UserID, s *sig.Signature) verdict {
	id := s.ID()
	if p.present[id] {
		return vDuplicate
	}
	if p.used[user] >= p.maxPerDay {
		return vOverLimit
	}
	tops := s.TopFrames()
	for _, prev := range p.tops[user] {
		if partialOverlap(tops, prev) {
			return vAdjacent
		}
	}
	p.present[id] = true
	p.used[user]++
	p.tops[user] = append(p.tops[user], tops)
	return vAccept
}

func partialOverlap(a, b map[string]struct{}) bool {
	common := 0
	for k := range a {
		if _, ok := b[k]; ok {
			common++
		}
	}
	return common > 0 && (common != len(a) || common != len(b))
}

// expected maps a verdict to the wire response the server must send.
func expected(v verdict) (wire.Status, string) {
	switch v {
	case vDuplicate:
		return wire.StatusOK, "duplicate"
	case vOverLimit:
		return wire.StatusRejected, "daily signature limit reached"
	case vAdjacent:
		return wire.StatusRejected, "adjacent to a signature you already sent"
	}
	return wire.StatusOK, ""
}

// addReq is one planned ADD.
type addReq struct {
	frame []byte // the complete length-prefixed request frame
	want  verdict
}

// ingestFixture is the generated input of one ingest phase: the
// preloaded data directory and the planner that generates the ADD
// stream round by round.
type ingestFixture struct {
	preDir     string
	preDigest  [32]byte          // over the preload's encodings in log order
	accepted   map[[32]byte]bool // digests of the encodings the plan accepts
	counts     [4]int
	sigBytes   samples
	dupSources []*sig.Signature // preloaded signatures re-uploads may name

	r        *rand.Rand
	codec    *ids.Codec
	model    *planner
	salt     int
	nextUser ids.UserID
	sent     [ingestConns][]*sig.Signature
	made     int
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

// buildIngestFixture writes the preloaded data directory. Nothing here
// is timed.
func buildIngestFixture(r *rand.Rand, dir string) (*ingestFixture, error) {
	codec, err := ids.NewCodec(benchKey)
	if err != nil {
		return nil, err
	}
	fx := &ingestFixture{
		preDir: filepath.Join(dir, "preload"), accepted: map[[32]byte]bool{},
		r: r, codec: codec, model: newPlanner(store.DefaultMaxPerDay),
		salt: int(r.Int31()), nextUser: 1_000_000,
	}

	// Preload through the store's own commit path, fsync off (it is not
	// the measured system).
	pre, err := store.Open(store.Config{DataDir: fx.preDir, Fsync: store.FsyncOff, Clock: pinnedClock})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	batch := make([]store.Upload, 0, 500)
	flush := func() error {
		for i, res := range pre.AddBatch(batch) {
			if !res.Added || res.Err != nil {
				return fmt.Errorf("preload %d not added: %v", i, res.Err)
			}
		}
		batch = batch[:0]
		return nil
	}
	for i := 0; i < ingestPreload; i++ {
		user := ids.UserID(1 + i/ingestPreloadEach)
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, fx.salt+i, 5, 8)
		if fx.model.admit(user, s) != vAccept {
			return nil, errors.New("preload plan rejected a signature")
		}
		data, err := sig.Encode(s)
		if err != nil {
			return nil, err
		}
		h.Write(data)
		if i%40 == 0 {
			fx.dupSources = append(fx.dupSources, s)
		}
		batch = append(batch, store.Upload{User: user, Sig: s})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := pre.Close(); err != nil {
		return nil, err
	}
	if err := syncDir(fx.preDir); err != nil {
		return nil, err
	}
	copy(fx.preDigest[:], h.Sum(nil))
	return fx, nil
}

// round plans the next perConn ADDs of every connection. New users
// join in every round; re-uploads name one of the connection's last
// ingestDupPool signatures or a preloaded one.
func (fx *ingestFixture) round(perConn int) ([ingestConns][]addReq, error) {
	var streams [ingestConns][]addReq
	r := fx.r
	for c := range streams {
		type slot struct {
			user ids.UserID
			tok  ids.Token
		}
		var slots []slot
		for len(slots) < perConn {
			n := 1 + r.Intn(4)
			if r.Float64() < ingestHeavyShare {
				n = store.DefaultMaxPerDay + 1 + r.Intn(6)
			}
			u := slot{user: fx.nextUser, tok: fx.codec.Mint(fx.nextUser)}
			fx.nextUser++
			for j := 0; j < n; j++ {
				slots = append(slots, u)
			}
		}
		slots = slots[:perConn]
		r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, sl := range slots {
			var s *sig.Signature
			switch {
			case r.Float64() < ingestDupShare && len(fx.sent[c]) > 0:
				if r.Intn(2) == 0 {
					s = fx.sent[c][r.Intn(len(fx.sent[c]))]
				} else {
					s = fx.dupSources[r.Intn(len(fx.dupSources))]
				}
			default:
				fx.made++
				s = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, fx.salt+ingestPreload+fx.made, 5, 8)
				if len(fx.sent[c]) < ingestDupPool {
					fx.sent[c] = append(fx.sent[c], s)
				} else {
					fx.sent[c][fx.made%ingestDupPool] = s
				}
			}
			v := fx.model.admit(sl.user, s)
			data, err := sig.Encode(s)
			if err != nil {
				return streams, err
			}
			frame, err := wire.EncodeFrame(wire.Request{Type: wire.MsgAdd, Token: sl.tok, Sig: data})
			if err != nil {
				return streams, err
			}
			if v == vAccept {
				fx.accepted[digest(data)] = true
			}
			fx.counts[v]++
			fx.sigBytes = append(fx.sigBytes, float64(len(data)))
			streams[c] = append(streams[c], addReq{frame: frame, want: v})
		}
	}
	return streams, nil
}

// ingestServer is one running server over a data directory.
type ingestServer struct {
	srv    *server.Server
	l      net.Listener
	served chan error
}

func startIngestServer(dir string) (*ingestServer, error) {
	srv, err := server.New(server.Config{Key: benchKey, DataDir: dir, Clock: pinnedClock})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	is := &ingestServer{srv: srv, l: l, served: make(chan error, 1)}
	go func() { is.served <- srv.Serve(l) }()
	return is, nil
}

func (is *ingestServer) close() error {
	is.srv.Close()
	return <-is.served
}

// ingestConn is one measuring connection's outcome.
type ingestConn struct {
	lat      samples // milliseconds
	mismatch int64
	busy     int64
	first    string
	err      error
}

// drive sends the stream over one connection, closed loop.
func drive(addr string, stream []addReq) *ingestConn {
	out := &ingestConn{lat: make(samples, 0, len(stream))}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		out.err = err
		return out
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, req := range stream {
		var resp wire.Response
		t0 := time.Now()
		if _, err := conn.Write(req.frame); err != nil {
			out.err = err
			return out
		}
		if err := wire.ReadMessage(br, &resp); err != nil {
			out.err = err
			return out
		}
		end := time.Now()
		out.lat = append(out.lat, float64(end.Sub(t0))/1e6)
		if resp.Status == wire.StatusBusy {
			out.busy++
		}
		status, detail := expected(req.want)
		if resp.Status != status || resp.Detail != detail {
			out.mismatch++
			if out.first == "" {
				out.first = fmt.Sprintf("planned %s, got %s %q", req.want, resp.Status, resp.Detail)
			}
		}
	}
	return out
}

// runIngest runs the ingest phase: rounds of ingestRoundADDs planned
// ADDs, each generated (untimed) and then sent over the connections.
func runIngest(cfg phaseConfig) (*phaseOut, error) {
	out := &phaseOut{e2e: metrics{}, layers: metrics{}}
	r := rand.New(rand.NewSource(cfg.seed))
	fx, err := buildIngestFixture(r, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	liveDir := filepath.Join(cfg.dir, "live")
	if err := copyDir(fx.preDir, liveDir); err != nil {
		return nil, err
	}

	var is *ingestServer
	for cfg.setupAgain(out.setup) {
		if is != nil {
			if err := is.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		is, err = startIngestServer(liveDir)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, since(t0))
	}
	defer is.close()
	if got := is.srv.Store().Len(); got != ingestPreload {
		return nil, fmt.Errorf("recovered %d signatures, want %d", got, ingestPreload)
	}

	addr := is.l.Addr().String()
	rounds := int(cfg.measure / ingestRoundTime)
	if rounds < 1 {
		rounds = 1
	}
	var lat samples
	var sending time.Duration
	var busy int64
	var replay []addReq
	for k := 0; k < rounds; k++ {
		streams, err := fx.round(ingestRoundADDs / ingestConns)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			for i := 0; i < ingestRoundADDs/ingestConns; i++ {
				for c := range streams {
					replay = append(replay, streams[c][i])
				}
			}
		}
		conns := make([]*ingestConn, ingestConns)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conns[c] = drive(addr, streams[c])
			}(c)
		}
		wg.Wait()
		sending += time.Since(t0)
		for c, co := range conns {
			if co.err != nil {
				return nil, fmt.Errorf("connection %d: %w", c, co.err)
			}
			lat = append(lat, co.lat...)
			busy += co.busy
			out.fail(co.mismatch, "connection %d verdicts differ from the plan (first: %s)", c, co.first)
		}
	}
	out.attempted += int64(len(lat))
	addD := summarize(lat, 99)
	out.e2e.set("add_per_s", float64(addD.n)/sending.Seconds(), "ADDs/s")
	out.e2e.set("add_p50_ms", addD.p50, "ms")
	out.logf("preload %d signatures; %d rounds of %d ADDs over %d connections in %.2fs: %d accept, %d duplicate, %d over the daily limit; median signature %.0f bytes; p50 %.3fms, p%d %.3fms",
		ingestPreload, rounds, ingestRoundADDs, ingestConns, sending.Seconds(), fx.counts[vAccept], fx.counts[vDuplicate], fx.counts[vOverLimit],
		median(fx.sigBytes), addD.p50, addD.tailP, addD.tail)

	if err := out.checkIngestLog(addr, fx); err != nil {
		return nil, err
	}
	if cfg.trace {
		// The ADD tail is reported without a bound: about one ADD in a
		// hundred waits out an OS scheduler tick or a WAL fsync, whose
		// cost depends on the disk's state, so over ten runs the p99
		// moved between 0.8 ms and 2.7 ms.
		addD.reportTail(out.layers, "ingest.add", "ms")
		out.layers.set("ingest.add_samples", float64(addD.n), "count")
		out.layers.set("server.busy", float64(busy), "count")
		if err := ingestTrace(cfg, out, fx, is, replay, addD.p50); err != nil {
			return nil, err
		}
	}
	replay = nil
	out.heapMB = liveHeapMB()
	return out, nil
}

// checkIngestLog walks the server's log with GETs and checks that it
// holds the preload, in order and byte for byte, followed by exactly the
// planned accepted set.
func (o *phaseOut) checkIngestLog(addr string, fx *ingestFixture) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	c := wire.NewConn(conn)
	pre := sha256.New()
	seen := map[[32]byte]bool{}
	index, from := 0, 1
	var extra int64
	for {
		if err := c.Send(wire.NewGet(from)); err != nil {
			return err
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("GET %d: %s %s", from, resp.Status, resp.Detail)
		}
		for _, raw := range resp.Sigs {
			index++
			if index <= ingestPreload {
				pre.Write(raw)
				continue
			}
			d := digest(raw)
			if !fx.accepted[d] || seen[d] {
				extra++
			}
			seen[d] = true
		}
		from = resp.Next
		if !resp.More {
			break
		}
	}
	var got [32]byte
	copy(got[:], pre.Sum(nil))
	if got != fx.preDigest {
		o.fail(1, "the log's first %d signatures are not the preload", ingestPreload)
	}
	var missing int64
	for d := range fx.accepted {
		if !seen[d] {
			missing++
		}
	}
	o.fail(extra, "logged signatures the plan did not accept, or logged twice")
	o.fail(missing, "planned accepts missing from the log")
	return nil
}

// copyDir copies the regular files of src into a new directory dst and
// flushes them to disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		outF, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(outF, in)
		in.Close()
		if err == nil {
			err = outF.Sync()
		}
		if cerr := outF.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return syncPath(dst)
}

// syncDir flushes the regular files of dir, and dir itself, to disk.
// Fixtures are written without fsync; flushing them before anything is
// timed keeps their writeback (which a journaled file system may fold
// into the measured server's first fsyncs) out of every timed region.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return syncPath(dir)
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// ingestTrace replays the stream's first requests through the public
// entry points in the order Server.Process calls them — the request
// envelope decode, Codec.Verify, sig.Decode, Store.AddBatch — on a fresh
// copy of the preload, times each, and times admit's sig steps on a
// clone. A separate server replays the same requests through
// Server.Process as one call.
func ingestTrace(cfg phaseConfig, out *phaseOut, fx *ingestFixture, live *ingestServer, replay []addReq, untracedP50 float64) error {

	liveBytes, err := dirBytes(filepath.Join(cfg.dir, "live"))
	if err != nil {
		return err
	}
	out.layers.set("store.wal_bytes_per_sig", float64(liveBytes)/float64(live.srv.Store().Len()), "bytes")

	spanDir := filepath.Join(cfg.dir, "spans")
	if err := copyDir(fx.preDir, spanDir); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := store.Open(store.Config{DataDir: spanDir, Clock: pinnedClock})
	if err != nil {
		return err
	}
	out.layers.set("store.recover_s", since(t0), "s")
	codec, err := ids.NewCodec(benchKey)
	if err != nil {
		return err
	}

	sp := spanSet{}
	var got [4]int
	var mismatch int64
	for _, rq := range replay {
		ta := time.Now()
		var req wire.Request
		if err := json.Unmarshal(rq.frame[4:], &req); err != nil {
			return err
		}
		tb := time.Now()
		frame, err := wire.EncodeFrame(req)
		if err != nil {
			return err
		}
		tc := time.Now()
		user, err := codec.Verify(req.Token)
		if err != nil {
			return err
		}
		td := time.Now()
		s, err := sig.Decode(req.Sig)
		if err != nil {
			return err
		}
		te := time.Now()
		res := st.AddBatch([]store.Upload{{User: user, Sig: s}})[0]
		tf := time.Now()
		sp.add("wire.decode_us", float64(tb.Sub(ta))/1e3)
		sp.add("wire.encode_us", float64(tc.Sub(tb))/1e3)
		sp.add("ids.verify_us", float64(td.Sub(tc))/1e3)
		sp.add("sig.decode_us", float64(te.Sub(td))/1e3)
		sp.add("store.add_batch_us", float64(tf.Sub(te))/1e3)
		sp.add("wire.add_bytes", float64(len(frame)))
		v := vAccept
		switch {
		case errors.Is(res.Err, store.ErrRateLimited):
			v = vOverLimit
		case errors.Is(res.Err, store.ErrAdjacent):
			v = vAdjacent
		case res.Err != nil:
			return res.Err
		case !res.Added:
			v = vDuplicate
		}
		got[v]++
		if v != rq.want {
			mismatch++
		}

		c := s.Clone()
		t1 := time.Now()
		verr := c.Valid()
		t2 := time.Now()
		c.ID()
		t3 := time.Now()
		c.TopFrames()
		t4 := time.Now()
		_, eerr := sig.Encode(c)
		t5 := time.Now()
		if verr != nil || eerr != nil {
			return errors.Join(verr, eerr)
		}
		sp.add("sig.valid_us", float64(t2.Sub(t1))/1e3)
		sp.add("sig.id_us", float64(t3.Sub(t2))/1e3)
		sp.add("sig.topframes_us", float64(t4.Sub(t3))/1e3)
		sp.add("sig.encode_us", float64(t5.Sub(t4))/1e3)
	}
	// The AddBatch probe must reach admit's three outcomes exactly as
	// planned.
	out.fail(mismatch, "replayed AddBatch verdicts differ from the plan")
	n := float64(len(replay))
	out.layers.set("store.accept_ratio", float64(got[vAccept])/n, "ratio")
	out.layers.set("store.dup_ratio", float64(got[vDuplicate])/n, "ratio")
	out.layers.set("store.reject_ratio", float64(got[vOverLimit]+got[vAdjacent])/n, "ratio")
	if got[vAccept] == 0 || got[vDuplicate] == 0 || got[vOverLimit] == 0 {
		out.fail(1, "the replay missed an admit outcome: %v", got)
	}

	var pages samples
	for from, more := 1, true; more; {
		tp := time.Now()
		var page []json.RawMessage
		page, from, more = st.GetPage(from, wire.MaxGetBatch, wire.MaxGetBytes)
		pages = append(pages, float64(time.Since(tp))/1e3)
		if len(page) == 0 {
			break
		}
	}
	out.layers.set("store.get_page_us", median(pages), "us")
	if err := st.Close(); err != nil {
		return err
	}

	// Allocations of one sig.Decode, counted over the replayed requests.
	var reqs []wire.Request
	for _, rq := range replay[:1000] {
		var req wire.Request
		if err := json.Unmarshal(rq.frame[4:], &req); err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		if _, err := sig.Decode(req.Sig); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	out.layers.set("sig.decode_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(reqs)), "count")

	// Server.Process as one call, on its own copy of the preload.
	procDir := filepath.Join(cfg.dir, "process")
	if err := copyDir(fx.preDir, procDir); err != nil {
		return err
	}
	srv, err := server.New(server.Config{Key: benchKey, DataDir: procDir, Clock: pinnedClock})
	if err != nil {
		return err
	}
	var proc samples
	mismatch = 0
	for _, rq := range replay {
		var req wire.Request
		if err := json.Unmarshal(rq.frame[4:], &req); err != nil {
			srv.Close()
			return err
		}
		tp := time.Now()
		resp := srv.Process(req)
		proc = append(proc, float64(time.Since(tp))/1e3)
		if status, detail := expected(rq.want); resp.Status != status || resp.Detail != detail {
			mismatch++
		}
	}
	srv.Close()
	out.fail(mismatch, "Server.Process verdicts differ from the plan")

	for _, name := range []string{"wire.decode_us", "wire.encode_us", "ids.verify_us", "sig.decode_us",
		"store.add_batch_us", "sig.valid_us", "sig.id_us", "sig.topframes_us", "sig.encode_us"} {
		out.layers.set(name, median(sp[name]), "us")
	}
	out.layers.set("wire.add_bytes", median(sp["wire.add_bytes"]), "bytes")
	process := median(proc)
	p50 := untracedP50 * 1e3
	out.layers.set("server.process_add_us", process, "us")
	out.layers.set("server.session_overhead_us", p50-process, "us")

	// The ADD's blocking path: client encode, server envelope decode,
	// token check, signature decode, store admit+commit; the rest (TCP,
	// session loop, response) is the unattributed residual.
	path := []string{"wire.encode_us", "wire.decode_us", "ids.verify_us", "sig.decode_us", "store.add_batch_us"}
	sum := 0.0
	line := fmt.Sprintf("add p50 %.1fus (untraced) =", p50)
	for _, name := range path {
		v := median(sp[name])
		sum += v
		line += fmt.Sprintf(" %s %.1f (%.0f%%) +", name, v, 100*v/p50)
	}
	out.layers.set("ingest.add_unattributed_us", p50-sum, "us")
	// Process runs the last three spans as one call: splitting and timing
	// them is the tracing overhead.
	inProcess := median(sp["ids.verify_us"]) + median(sp["sig.decode_us"]) + median(sp["store.add_batch_us"])
	out.layers.set("ingest.trace_overhead_pct", 100*(inProcess/process-1), "%")
	out.logf("%s unattributed %.1f (%.0f%%)", line, p50-sum, 100*(p50-sum)/p50)
	return nil
}
