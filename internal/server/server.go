// Package server implements the Communix server (§III-A/B): it collects
// deadlock signatures uploaded by Communix plugins (ADD), validates them
// server-side (§III-C2: encrypted sender ids, per-user adjacency, daily
// rate limit), and serves incremental downloads to Communix clients
// (GET).
//
// Two entry points exist deliberately: Process invokes the request
// processing routines directly (how the paper's Figure 2 measures the
// server's computations from tens of thousands of simultaneous threads),
// and Serve exposes the same processing over TCP (how Figure 3 measures
// the end-to-end distribution path).
package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/store"
	"communix/internal/wire"
)

// Ingestion pipeline defaults.
const (
	// DefaultIngestQueue bounds the pending-ADD channel when ingestion
	// workers are enabled.
	DefaultIngestQueue = 4096
	// DefaultIngestBatch caps how many queued ADDs one worker commits per
	// store batch.
	DefaultIngestBatch = 64
)

// Config parameterizes a Server.
type Config struct {
	// Key is the predefined AES-128 key under which user-id tokens were
	// minted. Required.
	Key []byte
	// MaxPerDay overrides the per-user daily signature budget (default
	// store.DefaultMaxPerDay).
	MaxPerDay int
	// Clock injects time for the rate limiter.
	Clock func() time.Time
	// Shards partitions the signature store (default store.DefaultShards).
	Shards int
	// IngestWorkers enables the asynchronous ingestion pipeline: decoded
	// ADD requests are queued on a bounded channel and drained by this
	// many worker goroutines that batch-commit to the store. 0 (the
	// default) processes every ADD synchronously on the request
	// goroutine — the paper's direct-invocation model.
	IngestWorkers int
	// IngestQueue bounds the pending-ADD channel (default
	// DefaultIngestQueue). When the queue is full the server answers
	// StatusBusy — backpressure is surfaced to the wire layer instead of
	// queueing without bound.
	IngestQueue int
	// IngestBatch caps the per-worker commit batch (default
	// DefaultIngestBatch).
	IngestBatch int
	// DataDir makes the signature database durable: accepted signatures
	// are written ahead to a segment log in this directory, and New
	// recovers the directory on startup. Empty keeps the database in
	// memory only — a restart loses every signature ever contributed.
	DataDir string
	// Fsync selects the write-ahead log's fsync policy (store.FsyncBatch
	// by default); meaningful only with DataDir.
	Fsync store.FsyncPolicy
	// GetBatch caps one GET reply (and one PUSH frame) at this many
	// signatures; truncated replies set More and the client pages
	// through Next. 0 means the protocol maximum, wire.MaxGetBatch;
	// larger values are clamped to it.
	GetBatch int
	// PushMaxLag is how many signatures behind a subscribed v2 session
	// may fall before the server downgrades it from PUSH delivery to
	// catch-up GETs (default 4 × GetBatch). Pushing resumes when a GET
	// reply comes back complete.
	PushMaxLag int
	// Pushers sizes the pooled pusher subsystem (pool.go): that many
	// shared worker goroutines drive every subscribed session's log
	// cursor. 0 means GOMAXPROCS; negative is rejected by New.
	Pushers int
	// MaxSessions caps concurrent v2 sessions. A HELLO past the cap is
	// answered with a v1 downgrade, shedding the peer into poll mode
	// (well-behaved clients fall back automatically). 0 = unlimited.
	MaxSessions int
	// MaxSubs caps push-admitted subscribers. A SUBSCRIBE past the quota
	// is accepted but shed: the session receives only catch-up markers
	// and drains via paginated GETs, promoting to full push delivery
	// when a slot frees up. 0 = unlimited. Replica sessions (REPLICATE)
	// are infrastructure and never count against it.
	MaxSubs int
	// Follow starts the server as a follower replica of the primary at
	// this address: it opens a v2 session there, REPLICATEs from its own
	// WAL-recovered cursor, applies shipped entries through the store's
	// commit path, and serves GET/SUBSCRIBE to clients while answering
	// ADDs with StatusNotPrimary (carrying this address). Empty = primary.
	Follow string
	// FollowDial overrides how the follower reaches its primary (tests
	// and in-process benches dial over pipes). When set, the server is a
	// follower even with Follow empty; Follow is still what
	// StatusNotPrimary advertises.
	FollowDial func() (net.Conn, error)
	// Advertise is the address this server tells clients to upload to
	// when it is (or becomes) the primary — the Primary field of its
	// HELLO replies. Optional; without it clients fall back to trying
	// their peer list.
	Advertise string
	// FollowPing is the follower's keepalive interval on the replication
	// session (default 10s). Followers report their durable cursor at
	// this cadence (plus immediately after each applied page), which is
	// also the primary's liveness signal for quorum acknowledgement.
	// Tests shorten it.
	FollowPing time.Duration
	// AckMode selects the upload acknowledgement contract: AckAsync (the
	// default) answers StatusOK once the entry is durable locally;
	// AckQuorum withholds StatusOK until a majority of the cell (this
	// node plus the Peers) holds the entry durably, degrading to
	// StatusBusy — never silent loss — when the quorum cannot be reached
	// within AckTimeout or the in-flight window is full.
	AckMode AckMode
	// NodeID identifies this server in a replicated cell: the identity a
	// follower's REPLICATE binds to its session (attributing its cursor
	// reports) and candidates stamp on vote requests. It must match the
	// entry for this node in its peers' Peers lists — reports and vote
	// requests under unconfigured names are ignored. Defaults to
	// Advertise.
	NodeID string
	// Peers lists the other members of the replicated cell (their
	// advertised addresses). A non-empty list arms the failure detector
	// and elector: followers that lose contact with the primary past the
	// (jittered) ElectionTimeout solicit epoch-stamped votes and
	// self-promote on a majority; a primary that discovers a peer at a
	// newer epoch steps down and rejoins as a follower. Majority is
	// computed over len(Peers)+1.
	Peers []string
	// PeerDial overrides how this server reaches a cell peer (tests and
	// in-process benches dial over pipes). nil uses TCP.
	PeerDial func(addr string) (net.Conn, error)
	// ElectionTimeout is the base failure-detection window: a follower
	// suspects the primary after hearing nothing for a uniformly jittered
	// duration in [ElectionTimeout, 2×ElectionTimeout) — jitter
	// decorrelates candidates so split votes resolve. Default 10s.
	ElectionTimeout time.Duration
	// AckTimeout bounds how long a quorum-mode ADD waits for majority
	// durability before degrading to StatusBusy (default 5s). The entry
	// is committed locally either way; the client's retry is absorbed as
	// a duplicate, so degradation never double-applies.
	AckTimeout time.Duration
	// AckWindow bounds concurrently waiting quorum-mode ADDs; further
	// uploads are answered StatusBusy immediately (default 4096).
	AckWindow int
	// MaxSubsPerUser caps push subscriptions per authenticated user,
	// extending the per-user ADD budgets to the read side. When set,
	// SUBSCRIBE must carry a valid user token and is answered
	// StatusRejected over the quota. 0 = no per-user cap.
	MaxSubsPerUser int
	// Logf, when set, receives operational log lines (follower loop
	// retries, promotions, elections). nil discards them.
	Logf func(format string, args ...any)
}

// AckMode selects the upload acknowledgement contract.
type AckMode int

const (
	// AckAsync acknowledges an ADD once it is durable on the primary;
	// replication to followers is asynchronous (an unfenced tail can be
	// lost on failover — the fence makes that explicit).
	AckAsync AckMode = iota
	// AckQuorum acknowledges an ADD only once a majority of the cell
	// holds it durably, so any elected successor (which needs a majority
	// of votes, granted only to max-cursor candidates) provably holds
	// every acknowledged entry.
	AckQuorum
)

// ParseAckMode maps the -ack flag values to an AckMode.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "async":
		return AckAsync, nil
	case "quorum":
		return AckQuorum, nil
	default:
		return 0, fmt.Errorf("unknown ack mode %q (want async or quorum)", s)
	}
}

// Server is a Communix signature server.
type Server struct {
	codec *ids.Codec
	db    *store.Store

	// Session layer (protocol v2): hub tracks subscribed sessions and
	// their push admission, pool is the shared pusher worker pool;
	// getBatch/pushMaxLag/maxSessions/maxSubs are the resolved Config
	// knobs.
	hub         hub
	pool        *pusherPool
	getBatch    int
	pushMaxLag  int
	maxSessions int
	maxSubs     int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	sessions int // live v2 sessions, capped by maxSessions
	wg       sync.WaitGroup
	closed   bool

	// Replication role state (replica.go). roleMu guards the fields; the
	// epoch itself lives in the store's persisted metadata.
	roleMu        sync.Mutex
	follower      bool
	primaryAddr   string // the primary's address a follower advertises
	advertise     string // our own address to advertise when primary
	followDial    func() (net.Conn, error)
	followPing    time.Duration
	followStop    chan struct{}
	followStopped bool
	followConn    net.Conn
	roleShutdown  bool // Close ran: no follower loop may be (re)armed
	followWG      sync.WaitGroup
	logf          func(format string, args ...any)

	// Failover plane (elector.go, quorum.go): cell membership, the
	// failure detector's last-contact clock, and the quorum-ACK tracker.
	nodeID          string
	peers           []string
	peerDial        func(addr string) (net.Conn, error)
	electionTimeout time.Duration
	ackMode         AckMode
	ackTimeout      time.Duration
	ackWindow       int
	lastContact     atomic.Int64 // unix nanos of the last frame from the primary
	electStop       chan struct{}
	electWG         sync.WaitGroup
	failoverOff     sync.Once
	quorum          quorumTracker

	maxSubsPerUser int

	// Ingestion pipeline (nil channel = synchronous ADDs). ingestMu
	// serializes enqueues against pipeline shutdown: producers hold it
	// shared around the closed-check + try-send pair, Close holds it
	// exclusively while marking the pipeline closed, so after Close
	// acquires it no new job can enter and draining the channel is final.
	ingestCh     chan *addJob
	ingestMu     sync.RWMutex
	ingestClosed bool
	ingestBatch  int
	ingestWG     sync.WaitGroup
}

// addJob is one queued ADD awaiting a worker's verdict.
type addJob struct {
	req  wire.Request
	resp chan wire.Response // buffered(1): the worker never blocks
}

// New builds a server. With cfg.DataDir set it recovers the signature
// database from the directory before serving, so the server resumes the
// exact signature sequence (and per-user validation state) it had before
// the last shutdown or crash.
func New(cfg Config) (*Server, error) {
	if cfg.Pushers < 0 {
		return nil, fmt.Errorf("server: Pushers must be >= 0, got %d", cfg.Pushers)
	}
	codec, err := ids.NewCodec(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	db, err := store.Open(store.Config{
		MaxPerDay: cfg.MaxPerDay,
		Clock:     cfg.Clock,
		Shards:    cfg.Shards,
		DataDir:   cfg.DataDir,
		Fsync:     cfg.Fsync,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		codec: codec,
		db:    db,
		conns: make(map[net.Conn]struct{}),
	}
	s.getBatch = cfg.GetBatch
	if s.getBatch <= 0 || s.getBatch > wire.MaxGetBatch {
		s.getBatch = wire.MaxGetBatch
	}
	s.pushMaxLag = cfg.PushMaxLag
	if s.pushMaxLag <= 0 {
		s.pushMaxLag = 4 * s.getBatch
	}
	if s.pushMaxLag < s.getBatch {
		// A threshold below one page would downgrade every subscriber on
		// every push; the floor keeps the knob safe to misconfigure.
		s.pushMaxLag = s.getBatch
	}
	s.maxSessions = cfg.MaxSessions
	s.maxSubs = cfg.MaxSubs
	workers := cfg.Pushers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.pool = newPusherPool(s, workers)
	if cfg.IngestWorkers > 0 {
		queue := cfg.IngestQueue
		if queue <= 0 {
			queue = DefaultIngestQueue
		}
		s.ingestBatch = cfg.IngestBatch
		if s.ingestBatch <= 0 {
			s.ingestBatch = DefaultIngestBatch
		}
		s.ingestCh = make(chan *addJob, queue)
		s.ingestWG.Add(cfg.IngestWorkers)
		for i := 0; i < cfg.IngestWorkers; i++ {
			go s.ingestLoop()
		}
	}
	s.advertise = cfg.Advertise
	s.logf = cfg.Logf
	s.followPing = cfg.FollowPing
	if s.followPing <= 0 {
		s.followPing = 10 * time.Second
	}
	s.nodeID = cfg.NodeID
	if s.nodeID == "" {
		s.nodeID = cfg.Advertise
	}
	s.peers = append([]string(nil), cfg.Peers...)
	s.peerDial = cfg.PeerDial
	s.electionTimeout = cfg.ElectionTimeout
	if s.electionTimeout <= 0 {
		s.electionTimeout = 10 * time.Second
	}
	s.ackMode = cfg.AckMode
	s.ackTimeout = cfg.AckTimeout
	if s.ackTimeout <= 0 {
		s.ackTimeout = 5 * time.Second
	}
	s.ackWindow = cfg.AckWindow
	if s.ackWindow <= 0 {
		s.ackWindow = 4096
	}
	s.maxSubsPerUser = cfg.MaxSubsPerUser
	s.lastContact.Store(time.Now().UnixNano())
	if cfg.Follow != "" || cfg.FollowDial != nil {
		s.roleMu.Lock()
		s.follower = true
		s.primaryAddr = cfg.Follow
		s.followDial = cfg.FollowDial
		if s.followDial == nil {
			s.followDial = s.dialTo(cfg.Follow)
		}
		s.followStop = make(chan struct{})
		s.followWG.Add(1)
		go s.followLoop(s.followStop)
		s.roleMu.Unlock()
	}
	if len(s.peers) > 0 {
		s.electStop = make(chan struct{})
		s.electWG.Add(1)
		go s.electorLoop(s.electStop)
	}
	return s, nil
}

// dialTo builds a dialer for one cell address, honoring Config.PeerDial.
func (s *Server) dialTo(addr string) func() (net.Conn, error) {
	if s.peerDial != nil {
		dial := s.peerDial
		return func() (net.Conn, error) { return dial(addr) }
	}
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
}

// Role reports the server's current role name ("primary" or
// "follower") — for operators, benches, and tests polling a failover.
func (s *Server) Role() string { return s.roleName() }

// Store exposes the underlying database (read-mostly, for tests and
// benchmarks).
func (s *Server) Store() *store.Store { return s.db }

// Process handles one request — the direct-invocation path. GETs are
// answered inline from the store's lock-free snapshot, paginated at the
// GetBatch/wire.MaxGetBytes caps (truncated replies set More); ADDs
// either commit synchronously (no ingestion workers) or ride the batched
// ingestion queue, in which case Process blocks until a worker delivers
// the verdict, or answers StatusBusy immediately when the queue is full.
// HELLO and SUBSCRIBE are session-layer exchanges and answered with
// StatusError here — exactly what a v1 server says to them, which is how
// v2 clients detect the fallback.
func (s *Server) Process(req wire.Request) wire.Response {
	switch req.Type {
	case wire.MsgAdd:
		if addr, isFollower := s.followerOf(); isFollower {
			return wire.Response{Status: wire.StatusNotPrimary, Primary: addr, Detail: "follower replica: uploads go to the primary"}
		}
		var resp wire.Response
		if s.ingestCh != nil {
			resp = s.enqueueAdd(req)
		} else {
			resp = s.processAdd(req)
		}
		if s.ackMode == AckQuorum && resp.Status == wire.StatusOK {
			// Quorum gate: hold the OK until the committed index (carried
			// in Next) is durable on a majority. This blocks only the
			// request's own goroutine — the ingest workers already moved
			// on — and degrades to StatusBusy on timeout, never lying
			// about durability.
			resp = s.awaitQuorum(resp)
		}
		return resp
	case wire.MsgGet:
		sigs, next, more := s.db.GetPage(req.From, s.getBatch, wire.MaxGetBytes)
		return wire.Response{Status: wire.StatusOK, Sigs: sigs, Next: next, More: more}
	case wire.MsgPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.MsgCursor:
		// Cursor reports feed the quorum tracker and must be attributed to
		// a session-bound replica identity (session.go); over v1 or any
		// other sessionless path there is no identity to bind, so the
		// report cannot count — reject instead of silently dropping it.
		return wire.Response{Status: wire.StatusRejected,
			Detail: "CURSOR requires an established REPLICATE session"}
	case wire.MsgVote:
		return s.handleVote(req)
	case wire.MsgSnapshot:
		return s.snapshotPage(req)
	case wire.MsgPromote:
		epoch, err := s.Promote()
		if err != nil {
			return wire.Response{Status: wire.StatusError, Detail: err.Error()}
		}
		return wire.Response{Status: wire.StatusOK, Epoch: epoch, Role: rolePrimary}
	case wire.MsgSubscribe:
		return wire.Response{Status: wire.StatusError, Detail: "SUBSCRIBE requires a v2 session (open with HELLO)"}
	case wire.MsgReplicate:
		return wire.Response{Status: wire.StatusError, Detail: "REPLICATE requires a v2 session (open with HELLO)"}
	default:
		return wire.Response{Status: wire.StatusError, Detail: fmt.Sprintf("unknown message type %d", req.Type)}
	}
}

// snapshotPage serves one page of a bootstrapping replica's snapshot
// pull. A Raw request ships the folded on-disk snapshot file as
// verbatim byte pages — no log walk, no per-entry re-serialization; the
// records' CRCs travel with the bytes. When there is nothing folded to
// ship (ephemeral store, or no compaction yet) the reply degrades to an
// entry page with a zero SnapVersion, which is how the follower detects
// the fallback. Entry pages serve full
// entries from 1-based req.From, including the snapshot-folded prefix,
// so a fenced or boundary-lagged follower rebuilds the authoritative
// log without replaying client uploads.
func (s *Server) snapshotPage(req wire.Request) wire.Response {
	if req.Raw {
		data, version, more, err := s.db.SnapshotChunk(req.SnapVersion, req.Offset, wire.MaxGetBytes)
		if err != nil {
			return wire.Response{Status: wire.StatusRejected, Detail: err.Error()}
		}
		if version != 0 {
			return wire.Response{Status: wire.StatusOK, Data: data, SnapVersion: version,
				Next: int(req.Offset) + len(data), More: more}
		}
	}
	entries, next, more, err := s.db.EntryPage(req.From, s.getBatch, wire.MaxGetBytes, true)
	if err != nil {
		return wire.Response{Status: wire.StatusError, Detail: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Entries: entriesToWire(entries), Next: next, More: more}
}

// enqueueAdd hands an ADD to the ingestion pipeline and waits for its
// response. A full queue is answered with StatusBusy at once — that is
// the backpressure contract with the wire layer.
func (s *Server) enqueueAdd(req wire.Request) wire.Response {
	job := &addJob{req: req, resp: make(chan wire.Response, 1)}
	s.ingestMu.RLock()
	if s.ingestClosed {
		s.ingestMu.RUnlock()
		return wire.Response{Status: wire.StatusError, Detail: "server closed"}
	}
	select {
	case s.ingestCh <- job:
		s.ingestMu.RUnlock()
	default:
		s.ingestMu.RUnlock()
		return wire.Response{Status: wire.StatusBusy, Detail: "ingestion queue full, retry"}
	}
	return <-job.resp
}

// ingestLoop is one ingestion worker: it blocks for a first job, then
// opportunistically drains more pending jobs up to the batch cap, decodes
// and verifies each, and commits the valid ones with one batched store
// publish.
func (s *Server) ingestLoop() {
	defer s.ingestWG.Done()
	for job := range s.ingestCh {
		batch := []*addJob{job}
		for len(batch) < s.ingestBatch {
			select {
			case more, ok := <-s.ingestCh:
				if !ok {
					s.processAddBatch(batch)
					return
				}
				batch = append(batch, more)
			default:
				goto commit
			}
		}
	commit:
		s.processAddBatch(batch)
	}
}

// processAddBatch validates each job's token and signature, batch-commits
// the well-formed ones, and answers every job.
func (s *Server) processAddBatch(jobs []*addJob) {
	uploads := make([]store.Upload, 0, len(jobs))
	pending := make([]*addJob, 0, len(jobs))
	for _, job := range jobs {
		user, uploaded, reject := s.decodeAdd(job.req)
		if reject != nil {
			job.resp <- *reject
			continue
		}
		uploads = append(uploads, store.Upload{User: user, Sig: uploaded})
		pending = append(pending, job)
	}
	committed := 0
	for i, res := range s.db.AddBatch(uploads) {
		if res.Added {
			committed++
		}
		pending[i].resp <- s.addVerdict(res.Added, res.Err, res.Index)
	}
	if committed > 0 {
		// The batch is published; fan it out to subscribed sessions.
		// One wake covers the whole batch — the pushers read the log.
		s.wakeSubscribers()
	}
}

func (s *Server) processAdd(req wire.Request) wire.Response {
	user, uploaded, reject := s.decodeAdd(req)
	if reject != nil {
		return *reject
	}
	res := s.db.AddBatch([]store.Upload{{User: user, Sig: uploaded}})[0]
	if res.Added {
		s.wakeSubscribers()
	}
	return s.addVerdict(res.Added, res.Err, res.Index)
}

// decodeAdd runs the pre-store gates shared by the synchronous and
// batched ADD paths: the encrypted sender id must verify under the
// predefined key (§III-C2), and the signature must decode. A non-nil
// response is the rejection to send.
func (s *Server) decodeAdd(req wire.Request) (ids.UserID, *sig.Signature, *wire.Response) {
	user, err := s.codec.Verify(req.Token)
	if err != nil {
		return 0, nil, &wire.Response{Status: wire.StatusRejected, Detail: "invalid user token"}
	}
	uploaded, err := sig.Decode(req.Sig)
	if err != nil {
		return 0, nil, &wire.Response{Status: wire.StatusError, Detail: fmt.Sprintf("malformed signature: %v", err)}
	}
	return user, uploaded, nil
}

// addVerdict maps a store ADD outcome to the wire response. An accepted
// upload whose WAL write failed (added && err != nil, the durable
// store's degraded mode) is still answered ok — the signature IS in the
// database and served by GET; StatusError is reserved for malformed
// requests per docs/PROTOCOL.md — with a detail flagging the lost
// durability for operators watching client logs.
//
// StatusOK replies carry the committed log index in Next — the
// watermark the quorum gate holds the ACK on and the client pins
// read-your-writes against. A duplicate's original index is unknown, so
// it reports the current log length: conservative (never below the real
// index), which keeps both uses sound.
func (s *Server) addVerdict(added bool, err error, index int) wire.Response {
	switch {
	case added && err != nil:
		return wire.Response{Status: wire.StatusOK, Next: index, Detail: "accepted; server durability degraded"}
	case errors.Is(err, store.ErrRateLimited):
		return wire.Response{Status: wire.StatusRejected, Detail: "daily signature limit reached"}
	case errors.Is(err, store.ErrAdjacent):
		return wire.Response{Status: wire.StatusRejected, Detail: "adjacent to a signature you already sent"}
	case err != nil:
		return wire.Response{Status: wire.StatusError, Detail: err.Error()}
	case !added:
		return wire.Response{Status: wire.StatusOK, Next: s.db.Len(), Detail: "duplicate"}
	default:
		return wire.Response{Status: wire.StatusOK, Next: index}
	}
}

// Serve accepts connections on l until Close. Each connection carries a
// sequence of length-prefixed requests, answered in order.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close ran first (or concurrently): take responsibility for the
		// listener it never saw and return cleanly.
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("host:port") and serves until Close.
// It reports the bound address through the returned channel before
// blocking in the accept loop.
func (s *Server) ListenAndServe(addr string, bound chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	if bound != nil {
		bound <- l.Addr()
	}
	return s.Serve(l)
}

// handle serves one connection. The first frame selects the protocol:
// HELLO opens a negotiated v2 session (request IDs, SUBSCRIBE/PUSH),
// anything else is a v1 one-shot peer served by the original sequential
// loop — existing clients keep working against this server unchanged.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	c := wire.NewConn(conn)
	var req wire.Request
	if err := c.Recv(&req); err != nil {
		return // EOF or protocol error: drop the connection
	}
	if req.Type == wire.MsgHello {
		s.serveSession(conn, c, req)
		return
	}
	if err := c.Send(s.Process(req)); err != nil {
		return
	}
	s.serveV1(c)
}

// reserveSession claims a v2 session slot against Config.MaxSessions.
// A false return means the cap is reached and the peer must be shed.
func (s *Server) reserveSession() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSessions > 0 && s.sessions >= s.maxSessions {
		return false
	}
	s.sessions++
	return true
}

// releaseSession returns a v2 session slot.
func (s *Server) releaseSession() {
	s.mu.Lock()
	s.sessions--
	s.mu.Unlock()
}

// serveV1 is the original sequential request/response loop: one frame
// in, one frame out, in order, until the peer hangs up.
func (s *Server) serveV1(c *wire.Conn) {
	for {
		var req wire.Request
		if err := c.Recv(&req); err != nil {
			return
		}
		if err := c.Send(s.Process(req)); err != nil {
			return
		}
	}
}

// Close stops the accept loop, closes all connections, waits for handler
// goroutines to drain, shuts the ingestion pipeline down — queued ADDs
// are still committed and answered before the workers exit — and finally
// flushes and closes the database's write-ahead log.
func (s *Server) Close() {
	s.failoverOff.Do(func() {
		s.roleMu.Lock()
		s.roleShutdown = true
		s.roleMu.Unlock()
		if s.electStop != nil {
			close(s.electStop)
			s.electWG.Wait()
		}
		s.quorum.closeAll()
	})
	s.stopFollowing()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.listener != nil {
			s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	// After wg.Wait every session is fully torn down, so no enqueue can
	// race the pool shutdown.
	s.pool.close()
	s.closeIngest()
	_ = s.db.Close()
}

// closeIngest marks the pipeline closed (no producer can enqueue once the
// exclusive lock is held: enqueues happen entirely under the shared lock),
// closes the channel, and waits for the workers to drain what was queued.
func (s *Server) closeIngest() {
	if s.ingestCh == nil {
		return
	}
	s.ingestMu.Lock()
	already := s.ingestClosed
	if !already {
		s.ingestClosed = true
		close(s.ingestCh)
	}
	s.ingestMu.Unlock()
	s.ingestWG.Wait()
}
