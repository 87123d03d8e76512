// Pooled pusher subsystem: N worker goroutines drive every subscribed
// session's log cursor, so the pusher cost of the server is O(workers),
// not O(subscribers). Sessions needing push work are enqueued on a
// readiness queue keyed by store-log commits (hub wakeups), a
// SUBSCRIBE ack hitting the wire, a catch-up GET completing, or the
// session writer finishing the previous PUSH frame.
//
// Scheduling is a four-state machine per session (pushIdle, pushQueued,
// pushRunning, pushRunningDirty) guarded by sess.mu:
//
//   - A wake on an idle session enqueues it (idle → queued).
//   - A wake on a queued session is a no-op — it is already going to be
//     dispatched, and dispatch re-reads the log length.
//   - A wake on a running session marks it dirty; the dispatching
//     worker re-evaluates before parking it, so no commit between "log
//     drained" and "going idle" is ever missed.
//
// One dispatch produces at most one frame per session (one page, or one
// catch-up marker) and never blocks on the session: the inflight flag —
// set when a frame is handed to the session writer, cleared by the
// writer after the frame reaches the socket — guarantees the
// single-slot push channel is empty, so a slow subscriber costs the
// pool nothing. Pipelining per session is deliberately 1: the writer
// re-wakes the pool after each written PUSH, so the next page is only
// produced once the previous one is on the wire.
//
// The pool also carries the encoded-page cache: pages of the
// append-only log are immutable, so the JSON marshal of a PUSH frame
// for a given cursor is computed once and the identical bytes fan out
// to every subscriber at that cursor instead of being marshalled once
// per subscriber.
//
// Lock hierarchy (acquire left before right, never the reverse):
// hub.mu ≻ sess.mu ≻ pool.qmu / pageCache.mu.
package server

import (
	"sync"

	"communix/internal/wire"
)

// Per-session push scheduling states (session.pstate, under sess.mu).
const (
	pushIdle int8 = iota
	pushQueued
	pushRunning
	pushRunningDirty
)

// pusherPool runs the shared pusher workers and the readiness queue.
type pusherPool struct {
	srv *Server

	qmu   sync.Mutex
	queue []*session
	head  int

	// wakeCh nudges sleeping workers; capacity = worker count, sends
	// never block. A dropped signal is harmless: any worker that wakes
	// drains the queue to empty before sleeping again.
	wakeCh   chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	cache pageCache
	// entryCache is the replication-plane analogue of cache: encoded
	// entry-page PUSH frames keyed by cursor, shared by all follower
	// replicas at the same position. Separate from cache because the two
	// planes encode different frames for the same cursor.
	entryCache pageCache
}

func newPusherPool(s *Server, workers int) *pusherPool {
	p := &pusherPool{
		srv:    s,
		wakeCh: make(chan struct{}, workers),
		stop:   make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// enqueue appends a session to the readiness queue and nudges a worker.
// Callers hold no locks; the state machine (wakePusher) guarantees a
// session occupies at most one queue slot.
func (p *pusherPool) enqueue(sess *session) {
	p.qmu.Lock()
	p.queue = append(p.queue, sess)
	p.qmu.Unlock()
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// pop removes the oldest ready session, nil when the queue is empty.
func (p *pusherPool) pop() *session {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if p.head >= len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
		return nil
	}
	sess := p.queue[p.head]
	p.queue[p.head] = nil // release the reference for GC
	p.head++
	return sess
}

// queued reports the readiness-queue depth (tests).
func (p *pusherPool) queued() int {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	return len(p.queue) - p.head
}

// worker drains the readiness queue, then sleeps until nudged.
func (p *pusherPool) worker() {
	defer p.wg.Done()
	for {
		for {
			sess := p.pop()
			if sess == nil {
				break
			}
			p.srv.dispatchPush(sess)
		}
		select {
		case <-p.wakeCh:
		case <-p.stop:
			return
		}
	}
}

// close stops the workers (idempotent — Server.Close may run more than
// once). Called after every session is gone, so no new enqueues race
// the shutdown; sessions left in the queue are simply dropped.
func (p *pusherPool) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// pageCacheSlots sizes the encoded-page cache. In steady state every
// caught-up subscriber asks for the same page and one slot would do;
// under bursty commit arrivals the population fragments into a handful
// of cursor cohorts — each dispatch wave mid-burst sees a longer log
// and produces a different page, and cohorts interleave in the
// readiness queue — so a single slot thrashes (alternating cursors
// evict each other and every other dispatch re-marshals). A few slots
// capture all live cohorts of a burst.
const pageCacheSlots = 8

// pageCache holds recently encoded PUSH pages keyed by starting cursor.
// Cursor ranges of the append-only log are immutable, so an entry can
// never go stale — entries are only ever superseded by longer pages at
// the same cursor or evicted round-robin.
type pageCache struct {
	mu    sync.Mutex
	hand  int
	slots [pageCacheSlots]pageCacheEntry
}

type pageCacheEntry struct {
	from int
	next int
	enc  []byte
}

func (c *pageCache) get(from int) ([]byte, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.slots {
		if e := &c.slots[i]; e.enc != nil && e.from == from {
			return e.enc, e.next
		}
	}
	return nil, 0
}

func (c *pageCache) put(from, next int, enc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Supersede the entry for this cursor if one exists (a page encoded
	// after more commits landed is a superset) rather than duplicating.
	for i := range c.slots {
		if e := &c.slots[i]; e.enc != nil && e.from == from {
			e.next, e.enc = next, enc
			return
		}
	}
	c.slots[c.hand] = pageCacheEntry{from: from, next: next, enc: enc}
	c.hand = (c.hand + 1) % pageCacheSlots
}

// wakePusher schedules push work for a session through the
// readiness-queue state machine.
func (s *Server) wakePusher(sess *session) {
	sess.mu.Lock()
	enqueue := false
	switch sess.pstate {
	case pushIdle:
		sess.pstate = pushQueued
		enqueue = true
	case pushRunning:
		sess.pstate = pushRunningDirty
	}
	sess.mu.Unlock()
	if enqueue {
		s.pool.enqueue(sess)
	}
}

// dispatchPush performs one scheduling round for a session: produce at
// most one PUSH frame (a data page, or a catch-up marker for lagging or
// quota-shed subscribers) and hand it to the session writer, without
// ever blocking on the session. It must be called by exactly one
// goroutine per session at a time — the pool's state machine
// guarantees that.
func (s *Server) dispatchPush(sess *session) {
	for {
		sess.mu.Lock()
		sess.pstate = pushRunning
		if sess.closing() || !sess.subscribed || !sess.armed || sess.catchup || sess.inflight {
			// Nothing to do now; every one of these conditions has a
			// guaranteed future wake (teardown needs none, SUBSCRIBE ack
			// and catch-up completion wake via onWrite hooks, inflight
			// wakes when the writer finishes the frame).
			sess.pstate = pushIdle
			sess.mu.Unlock()
			return
		}
		cur, shed, replica := sess.cursor, sess.shed, sess.replica
		sess.mu.Unlock()

		lag := s.db.Len() - (cur - 1)
		if lag <= 0 {
			if s.pushParked(sess) {
				return
			}
			continue // a commit raced in: re-evaluate
		}

		// Produce the frame outside sess.mu.
		var enc []byte
		next := cur
		marker := !replica && (shed || lag > s.pushMaxLag)
		if replica {
			// Replication stream: entry pages, never markers — a follower
			// is infrastructure and drains at socket speed, paging through
			// the same one-in-flight clocking as client pushes.
			page, pageNext, err := s.encodedReplPage(cur)
			if err != nil {
				sess.shutdown()
				return
			}
			if page == nil {
				if s.pushParked(sess) {
					return
				}
				continue
			}
			enc, next = page, pageNext
		} else if marker {
			// Shed subscribers get a notification marker per burst
			// instead of data pages; lagging subscribers get the classic
			// downgrade. Either way the client drains via paginated GETs
			// and the completing reply re-arms (or, for shed sessions,
			// re-attempts admission).
			frame, err := wire.EncodeFrame(wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Next: cur, More: true})
			if err != nil {
				sess.shutdown()
				return
			}
			enc = frame
		} else {
			page, pageNext, err := s.encodedPushPage(cur)
			if err != nil {
				sess.shutdown()
				return
			}
			if page == nil {
				if s.pushParked(sess) {
					return
				}
				continue
			}
			enc, next = page, pageNext
		}

		sess.mu.Lock()
		if sess.closing() || !sess.subscribed || !sess.armed || sess.catchup || sess.inflight || sess.cursor != cur {
			// The session moved under us (re-SUBSCRIBE, teardown, …):
			// drop the frame and re-evaluate from scratch.
			sess.mu.Unlock()
			continue
		}
		if marker {
			sess.catchup = true
		} else {
			sess.cursor = next
		}
		sess.inflight = true
		sess.pstate = pushIdle // the writer's post-write wake re-arms
		sess.mu.Unlock()

		// Guaranteed not to block: inflight was false, so the cap-1 slot
		// is empty; the stop case only covers teardown.
		select {
		case sess.pushSlot <- enc:
		case <-sess.stop:
		}
		return
	}
}

// pushParked parks a drained session as idle, unless a wake raced in
// while it was running (dirty) — then the caller must re-evaluate.
// This closes the "commit lands between the lag check and going idle"
// window: such a commit's wake either found the session running and set
// dirty, or finds it idle and re-enqueues it.
func (s *Server) pushParked(sess *session) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.pstate == pushRunningDirty {
		sess.pstate = pushRunning
		return false
	}
	sess.pstate = pushIdle
	return true
}

// encodedPushPage returns the encoded PUSH frame for the page starting
// at cursor cur, serving repeated requests for the same page from the
// pool's cache. A nil frame with nil error means the log has no page
// there (racing truncation of lag to zero).
func (s *Server) encodedPushPage(cur int) ([]byte, int, error) {
	if enc, next := s.pool.cache.get(cur); enc != nil {
		return enc, next, nil
	}
	sigs, next, _ := s.db.GetPage(cur, s.getBatch, wire.MaxGetBytes)
	if len(sigs) == 0 {
		return nil, 0, nil
	}
	enc, err := wire.EncodeFrame(wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Sigs: sigs, Next: next})
	if err != nil {
		return nil, 0, err
	}
	s.pool.cache.put(cur, next, enc)
	return enc, next, nil
}

// encodedReplPage is encodedPushPage for the replication plane: the
// PUSH frame carries full entries (user + timestamp + signature) read
// through the store's EntryPage. Bootstrap mode is always set — the
// admission check at REPLICATE time is the only snapshot-boundary
// gate, so a compaction landing mid-stream can never wedge a follower
// that was admitted above the old boundary.
func (s *Server) encodedReplPage(cur int) ([]byte, int, error) {
	if enc, next := s.pool.entryCache.get(cur); enc != nil {
		return enc, next, nil
	}
	entries, next, _, err := s.db.EntryPage(cur, s.getBatch, wire.MaxGetBytes, true)
	if err != nil {
		return nil, 0, err
	}
	if len(entries) == 0 {
		return nil, 0, nil
	}
	enc, err := wire.EncodeFrame(wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Entries: entriesToWire(entries), Next: next})
	if err != nil {
		return nil, 0, err
	}
	s.pool.entryCache.put(cur, next, enc)
	return enc, next, nil
}
