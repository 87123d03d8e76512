// Session layer: protocol-v2 persistent connections (docs/PROTOCOL.md).
//
// A connection whose first frame is HELLO becomes a session: a reader
// (the connection's handler goroutine) dispatches ID-tagged requests
// and a writer goroutine serializes all outbound frames. Push delivery
// — streaming signature deltas to a SUBSCRIBEd peer — is driven by the
// shared pusher pool (pool.go), which owns a position into the store's
// append-only log per session and schedules page production across all
// subscribers with a fixed number of workers. A subscriber lagging more
// than the configured threshold is downgraded: it receives one catch-up
// marker (PUSH with More set, no signatures) and must drain via
// paginated GETs; the first GET reply that comes back complete re-arms
// the push stream from the position the GET reached.
//
// Ordering is enforced at production time, not queue time: push
// production is gated on the armed/catchup flags, and those flags only
// flip in post-write hooks running after the corresponding response
// frame (the SUBSCRIBE ack, the re-arming complete GET reply) has
// physically reached the socket. A PUSH that could overtake the reply
// that permits it therefore cannot exist, regardless of how the writer
// interleaves its two sources.
//
// Admission limits: Config.MaxSessions caps concurrent v2 sessions —
// a HELLO over the cap is answered with a v1 downgrade, which existing
// clients already handle by falling back to polling. Config.MaxSubs
// caps push-admitted subscribers — a SUBSCRIBE over the quota is
// accepted but shed: the session receives only catch-up markers (so it
// still learns when the database grows) and drains via paginated GETs;
// each completed drain re-attempts admission, so shed sessions promote
// to full push delivery as slots free up.
package server

import (
	"net"
	"sync"

	"communix/internal/ids"
	"communix/internal/wire"
)

const (
	// sessionOutQueue bounds one session's outbound response queue.
	// Frames past it apply backpressure to their producer (reader
	// dispatch), never unbounded server memory.
	sessionOutQueue = 16
	// sessionMaxInflightAdds bounds concurrently processed ADDs per
	// session; further ADD frames wait in the kernel socket buffer.
	sessionMaxInflightAdds = 32
)

// hub tracks subscribed sessions and their push-admission state. It
// carries no payload on wakeups: each dispatch reads its own deltas
// from the store's lock-free log snapshot, so a commit burst costs one
// coalesced wakeup per subscriber regardless of burst size.
type hub struct {
	mu sync.Mutex
	// subs maps each subscribed session to its admission: true = full
	// push delivery, false = shed to marker-only (over MaxSubs quota).
	subs map[*session]bool
	// admitted counts the true entries, so admission checks are O(1).
	admitted int
	// users counts active subscriptions per authenticated user — the
	// per-user quota plane (Config.MaxSubsPerUser), extending the
	// per-user ADD budgets to the read side.
	users map[ids.UserID]int
}

// reserveUser counts one subscription against user's quota, rejecting
// at max. A session holds at most one reservation (re-SUBSCRIBE on the
// same session is not double-counted); remove releases it. A counted
// session re-subscribing under a DIFFERENT user token runs the quota
// check for the new user before the old reservation moves: rotating
// tokens on one session is not a way to hold slots under several users,
// nor to bypass the new user's limit. On rejection the old reservation
// stands — the session's active subscription is still the old user's.
func (h *hub) reserveUser(sess *session, user ids.UserID, max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	sess.mu.Lock()
	prev, counted := sess.user, sess.userCounted
	sess.mu.Unlock()
	if counted && prev == user {
		return true
	}
	if h.users == nil {
		h.users = make(map[ids.UserID]int)
	}
	if h.users[user] >= max {
		return false
	}
	h.users[user]++
	if counted {
		if h.users[prev] > 1 {
			h.users[prev]--
		} else {
			delete(h.users, prev)
		}
	}
	sess.mu.Lock()
	sess.user = user
	sess.userCounted = true
	sess.mu.Unlock()
	return true
}

// register adds a subscribing session and decides its admission against
// the quota (0 = unlimited). A re-SUBSCRIBE keeps the session's
// existing admission — re-subscribing is not a way to jump the queue.
func (h *hub) register(sess *session, maxSubs int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		h.subs = make(map[*session]bool)
	}
	if adm, ok := h.subs[sess]; ok {
		return adm
	}
	adm := maxSubs <= 0 || h.admitted < maxSubs
	h.subs[sess] = adm
	if adm {
		h.admitted++
	}
	return adm
}

// remove drops a departing session, freeing its admission slot and its
// per-user quota reservation.
func (h *hub) remove(sess *session) {
	h.mu.Lock()
	if adm, ok := h.subs[sess]; ok {
		delete(h.subs, sess)
		if adm {
			h.admitted--
		}
	}
	sess.mu.Lock()
	user, counted := sess.user, sess.userCounted
	sess.userCounted = false
	sess.mu.Unlock()
	if counted {
		if h.users[user] > 1 {
			h.users[user]--
		} else {
			delete(h.users, user)
		}
	}
	h.mu.Unlock()
}

// tryPromote upgrades a shed session to full push delivery if a quota
// slot is free. Reports whether the session is now admitted.
func (h *hub) tryPromote(sess *session, maxSubs int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	adm, ok := h.subs[sess]
	if !ok {
		return false
	}
	if adm {
		return true
	}
	if maxSubs > 0 && h.admitted >= maxSubs {
		return false
	}
	h.subs[sess] = true
	h.admitted++
	sess.mu.Lock()
	sess.shed = false
	sess.mu.Unlock()
	return true
}

// wakeSubscribers schedules push work for every subscribed session —
// the store calls this once per committed batch.
func (s *Server) wakeSubscribers() {
	s.hub.mu.Lock()
	for sess := range s.hub.subs {
		s.wakePusher(sess)
	}
	s.hub.mu.Unlock()
}

// outFrame is one queued outbound response. onWrite, if set, runs on
// the writer goroutine immediately after the frame reaches the socket —
// the mechanism that gates push production on bytes-on-wire.
type outFrame struct {
	resp    wire.Response
	onWrite func()
}

// session is one v2 connection's server-side state.
type session struct {
	conn net.Conn
	wc   *wire.Conn

	out chan outFrame
	// pushSlot carries at most one pre-encoded PUSH frame from the
	// pusher pool to the writer. The
	// inflight flag guarantees it is empty whenever a send is attempted,
	// so pushers never block on a slow subscriber.
	pushSlot chan []byte
	stop     chan struct{}
	stopOnce sync.Once

	// mu guards the subscription and scheduling state below, shared
	// between the reader (SUBSCRIBE/GET handling), the writer (post-write
	// hooks), and the pusher.
	mu         sync.Mutex
	subscribed bool
	// cursor is the 1-based log index the next PUSH starts from.
	cursor int
	// catchup marks a downgraded subscriber: pushing is paused until a
	// complete (un-truncated) GET reply proves the peer caught up.
	catchup bool
	// shed marks a subscriber over the MaxSubs quota: it receives
	// catch-up markers instead of data pages until tryPromote succeeds.
	shed bool
	// replica marks a REPLICATE stream (a follower server, not a
	// client): pushes carry full entries instead of signature pages, and
	// the session is never shed or lag-downgraded.
	replica bool
	// replNode is the replica's peer node identity, bound when the
	// REPLICATE was admitted (empty unless the claimed node is a
	// configured cell peer). CURSOR reports on this session count toward
	// quorum under this identity and no other — an arbitrary connection
	// cannot speak for a member.
	replNode string
	// user/userCounted track this session's per-user subscription quota
	// reservation (hub.reserveUser); only meaningful when
	// Config.MaxSubsPerUser is enforced.
	user        ids.UserID
	userCounted bool
	// armed is set once the SUBSCRIBE ack has physically been written;
	// no PUSH is produced before that, so the first PUSH can never
	// overtake the ack.
	armed bool
	// inflight is set while one PUSH frame is between production and the
	// socket; the writer clears it and re-wakes the pusher, making
	// per-session delivery self-clocking at one page in flight.
	inflight bool
	// pstate is the pooled scheduler's per-session state (pool.go).
	pstate int8

	wg sync.WaitGroup // writer + in-flight ADD handlers
}

func newSession(conn net.Conn, wc *wire.Conn) *session {
	return &session{
		conn:     conn,
		wc:       wc,
		out:      make(chan outFrame, sessionOutQueue),
		pushSlot: make(chan []byte, 1),
		stop:     make(chan struct{}),
	}
}

// send queues one outbound frame, giving up when the session is tearing
// down (so producers never block on a dead peer's full queue).
func (sess *session) send(r wire.Response) bool {
	return sess.sendHook(r, nil)
}

// sendHook queues one outbound frame with a post-write hook.
func (sess *session) sendHook(r wire.Response, onWrite func()) bool {
	select {
	case sess.out <- outFrame{resp: r, onWrite: onWrite}:
		return true
	case <-sess.stop:
		return false
	}
}

// closing reports whether shutdown has begun. Callers must tolerate the
// answer going stale immediately; it only gates best-effort work.
func (sess *session) closing() bool {
	select {
	case <-sess.stop:
		return true
	default:
		return false
	}
}

// shutdown tears the session down exactly once: the stop channel
// releases every goroutine blocked on send, and closing the
// connection unblocks the reader.
func (sess *session) shutdown() {
	sess.stopOnce.Do(func() {
		close(sess.stop)
		sess.conn.Close()
	})
}

// writeLoop is the session's single writer: every frame — responses and
// pushes alike — leaves through here, so interleaving is frame-atomic.
// After each written PUSH it clears inflight and re-wakes the pusher,
// which is what clocks page production to the subscriber's socket.
func (s *Server) writeLoop(sess *session) {
	defer sess.wg.Done()
	for {
		select {
		case f := <-sess.out:
			if err := sess.wc.Send(f.resp); err != nil {
				sess.shutdown()
				return
			}
			if f.onWrite != nil {
				f.onWrite()
			}
		case enc := <-sess.pushSlot:
			if err := sess.wc.SendEncoded(enc); err != nil {
				sess.shutdown()
				return
			}
			sess.mu.Lock()
			sess.inflight = false
			sess.mu.Unlock()
			s.wakePusher(sess)
		case <-sess.stop:
			return
		}
	}
}

// serveSession negotiates and runs one v2 session; it returns when the
// connection dies (peer hangup, write error, server Close). hello is the
// already-read opening frame.
func (s *Server) serveSession(conn net.Conn, c *wire.Conn, hello wire.Request) {
	version := hello.Version
	if version > wire.MaxVersion {
		version = wire.MaxVersion
	}
	if version >= wire.V2 && !s.reserveSession() {
		// Session cap reached: shed the peer into the stateless protocol.
		// Answering the HELLO with v1 makes a well-behaved client fall
		// back to polling — service degrades to pull, it doesn't stop.
		version = wire.V1
	}
	if version < wire.V2 {
		// The peer asked for v1 (or nonsense), or the cap downgraded it:
		// acknowledge the downgrade and serve the plain sequential loop.
		ack := wire.Response{Status: wire.StatusOK, ID: hello.ID, Version: wire.V1}
		s.decorateHello(&ack, hello.Epoch)
		if c.Send(ack) != nil {
			return
		}
		s.serveV1(c)
		return
	}
	defer s.releaseSession()

	sess := newSession(conn, c)
	sess.wg.Add(1)
	go s.writeLoop(sess)
	defer func() {
		sess.shutdown()
		s.hub.remove(sess)
		sess.wg.Wait()
	}()

	ack := wire.Response{Status: wire.StatusOK, ID: hello.ID, Version: version}
	s.decorateHello(&ack, hello.Epoch)
	if !sess.send(ack) {
		return
	}

	sem := make(chan struct{}, sessionMaxInflightAdds)
	for {
		var req wire.Request
		if err := c.Recv(&req); err != nil {
			return
		}
		switch req.Type {
		case wire.MsgAdd:
			// ADD verdicts can wait on the ingestion pipeline; dispatch
			// so GETs, PINGs, and pushes keep flowing meanwhile. IDs
			// match responses back to requests, order is unspecified.
			sem <- struct{}{}
			sess.wg.Add(1)
			go func(req wire.Request) {
				defer func() { <-sem; sess.wg.Done() }()
				resp := s.Process(req)
				resp.ID = req.ID
				sess.send(resp)
			}(req)
		case wire.MsgGet:
			resp := s.Process(req)
			resp.ID = req.ID
			var onWrite func()
			if !resp.More {
				// A complete reply proves the peer is caught up: resume
				// pushing from where the GET ended (no gap: anything
				// committed after the snapshot is ≥ resp.Next). The hook
				// runs strictly AFTER the reply bytes reach the socket,
				// and push production is gated on it — so the first
				// resumed PUSH can never overtake the GET reply on the
				// wire; overtaking would misalign the client's repository
				// positions and drop the GET page for good.
				next := resp.Next
				onWrite = func() { s.getCompleted(sess, next) }
			}
			if !sess.sendHook(resp, onWrite) {
				return
			}
		case wire.MsgSubscribe:
			if reject := s.admitSubscribe(sess, req); reject != nil {
				if !sess.send(*reject) {
					return
				}
				continue
			}
			s.subscribe(sess, req.From)
			// Arming happens in the ack's post-write hook: the backlog
			// stream starts only once the ack is on the wire, so PUSH
			// frames never precede it.
			if !sess.sendHook(wire.Response{Status: wire.StatusOK, ID: req.ID}, func() { s.subscriptionArmed(sess) }) {
				return
			}
		case wire.MsgReplicate:
			if reject := s.admitReplicate(sess, req); reject != nil {
				if !sess.send(*reject) {
					return
				}
				continue
			}
			// Same arming discipline as SUBSCRIBE: entry pages flow only
			// once the ack (carrying our epoch and fence history) is on
			// the wire.
			ack := wire.Response{Status: wire.StatusOK, ID: req.ID,
				Epoch: s.db.Epoch(), Fences: fencesToWire(s.db.Fences())}
			if !sess.sendHook(ack, func() { s.subscriptionArmed(sess) }) {
				return
			}
		case wire.MsgCursor:
			// Durable-cursor reports count toward quorum ACKs only on an
			// established REPLICATE session, attributed to the node identity
			// bound at admission — never to a name the frame claims. The
			// report's Epoch field is the follower's vote bar (quorum.go).
			sess.mu.Lock()
			replica, node := sess.replica, sess.replNode
			sess.mu.Unlock()
			if !replica {
				if !sess.send(wire.Response{Status: wire.StatusRejected, ID: req.ID,
					Detail: "CURSOR requires an established REPLICATE session"}) {
					return
				}
				continue
			}
			if node != "" {
				s.recordCursor(node, req.Cursor, req.Epoch)
			}
			if !sess.send(wire.Response{Status: wire.StatusOK, ID: req.ID}) {
				return
			}
		case wire.MsgPing:
			if !sess.send(wire.Response{Status: wire.StatusOK, ID: req.ID}) {
				return
			}
		default:
			resp := s.Process(req)
			resp.ID = req.ID
			if !sess.send(resp) {
				return
			}
		}
	}
}

// admitSubscribe enforces the per-user subscription quota
// (Config.MaxSubsPerUser). When enforced, the SUBSCRIBE must carry a
// valid user token, and each user gets at most that many concurrent
// subscriptions across all their sessions. A non-nil response is the
// rejection to send.
func (s *Server) admitSubscribe(sess *session, req wire.Request) *wire.Response {
	if s.maxSubsPerUser <= 0 {
		return nil
	}
	user, err := s.codec.Verify(req.Token)
	if err != nil {
		return &wire.Response{Status: wire.StatusRejected, ID: req.ID,
			Detail: "subscription requires a valid user token on this server"}
	}
	if !s.hub.reserveUser(sess, user, s.maxSubsPerUser) {
		return &wire.Response{Status: wire.StatusRejected, ID: req.ID,
			Detail: "per-user subscription limit reached"}
	}
	return nil
}

// subscribe registers the session for pushes from 1-based index from.
// Production stays disarmed until the SUBSCRIBE ack's post-write hook
// fires; admission against the MaxSubs quota is decided here.
func (s *Server) subscribe(sess *session, from int) {
	if from < 1 {
		from = 1
	}
	admitted := s.hub.register(sess, s.maxSubs)
	sess.mu.Lock()
	sess.subscribed = true
	sess.cursor = from
	sess.catchup = false
	sess.armed = false
	sess.shed = !admitted
	sess.mu.Unlock()
}

// subscriptionArmed runs after the SUBSCRIBE ack reaches the socket:
// from here on the pusher may produce frames for this session.
func (s *Server) subscriptionArmed(sess *session) {
	sess.mu.Lock()
	sess.armed = true
	sess.mu.Unlock()
	s.wakePusher(sess)
}

// getCompleted runs after a complete (un-truncated) GET reply reaches
// the socket. For a downgraded subscriber that is the proof it caught
// up: re-arm the push stream from where the GET ended; a shed session
// additionally re-attempts quota admission — completing a drain is the
// promotion point, so promotion never lands mid-drain.
func (s *Server) getCompleted(sess *session, next int) {
	sess.mu.Lock()
	resumed := sess.subscribed && sess.catchup
	shed := sess.shed
	if resumed {
		sess.catchup = false
		sess.cursor = next
	}
	sess.mu.Unlock()
	if !resumed {
		return
	}
	if shed {
		s.hub.tryPromote(sess, s.maxSubs)
	}
	s.wakePusher(sess)
}
