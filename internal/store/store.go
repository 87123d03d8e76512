// Package store implements the Communix server's signature database with
// the server-side validation state of §III-C2: per-user adjacency
// rejection and the per-user daily rate limit.
//
// The database must absorb uploads "from tens of thousands of
// simultaneous threads" (§III-A), so the hot path is partitioned: the
// duplicate-detection set is sharded by signature ID, the per-user
// validation state is sharded by user ID, and commuting ADDs (different
// signatures from different users) proceed on distinct shard locks in
// parallel. Accepted signatures funnel into one append-only log that
// assigns the global 1-based indexes; GET reads a lock-free snapshot of
// that log and never blocks writers. The Locked type in this package is
// the original single-mutex implementation, kept as the semantic
// reference the differential tests compare against.
//
// With Config.DataDir set (use Open, not New), the database is durable:
// every committed batch is written ahead to a CRC-checked segment log
// before it is acknowledged, sealed segments are periodically folded
// into a snapshot, and Open recovers the directory — tolerating a torn
// final record from a crash mid-write — so the accumulated community
// database outlives the process. See docs/ARCHITECTURE.md
// ("Persistence") for the format and invariants.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// DefaultMaxPerDay is the paper's server-side rate limit: "The server
// processes only up to 10 signatures per day from one user" (§III-C1).
const DefaultMaxPerDay = 10

// DefaultShards is the default partition count for the sharded store.
// Sixteen shards keep commuting ADDs from tens of workers conflict-free
// while the per-shard maps stay dense.
const DefaultShards = 16

// Rejection reasons.
var (
	// ErrRateLimited: the user exceeded the daily signature budget.
	ErrRateLimited = errors.New("store: user exceeded daily signature limit")
	// ErrAdjacent: the user already submitted a signature sharing some
	// (but not all) top frames with this one.
	ErrAdjacent = errors.New("store: adjacent signature from same user")
)

// Config parameterizes a Store.
type Config struct {
	// MaxPerDay caps accepted signatures per user per UTC day; default
	// DefaultMaxPerDay.
	MaxPerDay int
	// Clock injects time for the rate limiter; default time.Now.
	Clock func() time.Time
	// Shards is the number of hash partitions for the duplicate set and
	// the per-user validation state; <= 0 selects DefaultShards. One
	// shard degenerates to (and must behave exactly like) the Locked
	// reference store.
	Shards int
	// DataDir enables durability: accepted signatures are appended to a
	// write-ahead segment log in this directory before they are
	// published, and Open replays the directory on startup. Empty (the
	// default) keeps the store purely in memory.
	DataDir string
	// Fsync selects when the write-ahead log fsyncs (FsyncBatch,
	// FsyncAlways, FsyncOff); meaningful only with DataDir.
	Fsync FsyncPolicy
	// SegmentMaxBytes caps one WAL segment before it is sealed; <= 0
	// selects DefaultSegmentMaxBytes.
	SegmentMaxBytes int64
	// CompactSegments is how many sealed segments trigger snapshot
	// compaction; <= 0 selects DefaultCompactSegments.
	CompactSegments int
	// ReadOnly opens DataDir for inspection only: recovery runs, reads
	// work, every mutation returns ErrReadOnly, and no file is created
	// or modified. Requires DataDir.
	ReadOnly bool
}

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.MaxPerDay <= 0 {
		cfg.MaxPerDay = DefaultMaxPerDay
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.SegmentMaxBytes <= 0 {
		cfg.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = DefaultCompactSegments
	}
	return cfg
}

// userState is the per-user validation state.
type userState struct {
	// tops holds the top-frame set of every accepted signature.
	tops []map[string]struct{}
	// day is the UTC day of the current budget window.
	day int64
	// used counts accepted signatures within the window. Rejected
	// signatures do not consume budget: the limit is on signatures the
	// server "processes and adds to its database" (§IV-B).
	used int
}

// check rolls the budget window to today and reports whether a signature
// with the given top frames would be rejected. The caller holds the lock
// guarding u.
func (u *userState) check(tops map[string]struct{}, today int64, maxPerDay int) error {
	if u.day != today {
		u.day = today
		u.used = 0
	}
	if u.used >= maxPerDay {
		return ErrRateLimited
	}
	// Adjacency: reject if this user already sent a signature sharing
	// some but not all top frames (§III-C2).
	for _, prev := range u.tops {
		if partialOverlap(tops, prev) {
			return ErrAdjacent
		}
	}
	return nil
}

// commit records an accepted signature against the budget. The caller
// holds the lock guarding u and has called check.
func (u *userState) commit(tops map[string]struct{}) {
	u.tops = append(u.tops, tops)
	u.used++
}

// partialOverlap reports whether the two top-frame sets intersect without
// being equal — the paper's "adjacent" relation.
func partialOverlap(a, b map[string]struct{}) bool {
	common := 0
	for k := range a {
		if _, ok := b[k]; ok {
			common++
		}
	}
	if common == 0 {
		return false
	}
	return common != len(a) || common != len(b)
}

// sigShard is one partition of the duplicate-detection set. The pad
// brings the struct to 64 bytes (8 mutex + 8 map + 48) so adjacent
// shards' locks sit on distinct cache lines and never false-share.
type sigShard struct {
	mu      sync.Mutex
	present map[string]struct{}
	_       [48]byte
}

// userShard is one partition of the per-user validation state.
type userShard struct {
	mu    sync.Mutex
	users map[ids.UserID]*userState
	_     [48]byte
}

// Store is the sharded signature database. Accepted signatures get
// consecutive 1-based indexes from a shared append-only log; GET(k)
// returns everything from index k over a lock-free snapshot, making
// client downloads incremental (§III-B) and reads wait-free with respect
// to writers. With Config.DataDir set, every committed batch is appended
// to a write-ahead segment log before it is published, and Open replays
// the directory on startup — the database outlives the process. It is
// safe for concurrent use.
//
// Locking order is sigShard -> userShard -> walMu -> log; an ADD takes
// exactly one shard of each kind, so ADDs over different signatures and
// users never contend outside the shared commit step.
type Store struct {
	maxPerDay  int
	clock      func() time.Time
	readOnly   bool
	sigShards  []sigShard
	userShards []userShard
	log        *appendLog

	// walMu serializes committed batches through the persister and keeps
	// the on-disk record order identical to the in-memory index order.
	// nil wal = ephemeral store, commits go straight to the log.
	walMu sync.Mutex
	wal   *persister

	// compacted is the snapshot boundary: every entry with index ≤
	// compacted has been folded into the on-disk snapshot. The
	// replication contract treats indexes at or below it as served
	// "from the snapshot" (see EntryPage / docs/ARCHITECTURE.md,
	// "Replication"); always 0 on an ephemeral store.
	compacted atomic.Int64

	// replMu serializes replicated applies (a follower's single
	// replication loop in practice; the lock makes the cursor arithmetic
	// safe regardless).
	replMu sync.Mutex

	// epochMu guards the replication epoch, fence history, and persisted
	// election vote (meta.go). metaDir is the data directory when
	// durable, "" when ephemeral.
	epochMu    sync.Mutex
	epoch      uint64
	fences     []Fence
	votedEpoch uint64
	votedFor   string
	metaDir    string
}

// New builds an ephemeral in-memory store. Persistence fields of cfg
// (DataDir and friends) are ignored; use Open for a durable store.
func New(cfg Config) *Store {
	cfg.DataDir = ""
	cfg.ReadOnly = false
	st, err := Open(cfg)
	if err != nil {
		// Unreachable: only the persistence path can fail.
		panic(err)
	}
	return st
}

// Open builds a store. With cfg.DataDir set it recovers the directory's
// durable record sequence — newest valid snapshot first, then the WAL
// segments, tolerating a torn record at the tail of the last segment —
// and replays it into the shards, the per-user validation state, and the
// GET log, so a restarted server serves the identical signature sequence
// and still enforces duplicate, adjacency, and budget decisions made
// before the restart.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{
		maxPerDay:  cfg.MaxPerDay,
		clock:      cfg.Clock,
		readOnly:   cfg.ReadOnly,
		sigShards:  make([]sigShard, cfg.Shards),
		userShards: make([]userShard, cfg.Shards),
		log:        newAppendLog(),
	}
	for i := range st.sigShards {
		st.sigShards[i].present = make(map[string]struct{})
	}
	for i := range st.userShards {
		st.userShards[i].users = make(map[ids.UserID]*userState)
	}
	st.epoch = epochStart
	if cfg.DataDir == "" {
		if cfg.ReadOnly {
			return nil, errors.New("store: ReadOnly requires DataDir")
		}
		return st, nil
	}
	meta, err := loadMeta(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	st.epoch, st.fences = meta.Epoch, meta.Fences
	st.votedEpoch, st.votedFor = meta.VotedEpoch, meta.VotedFor
	st.metaDir = cfg.DataDir

	today := st.clock().UTC().Unix() / 86400
	var recovered []Entry
	wal, err := openPersister(persistConfig{
		dir:      cfg.DataDir,
		policy:   cfg.Fsync,
		segMax:   cfg.SegmentMaxBytes,
		compactN: cfg.CompactSegments,
		readOnly: cfg.ReadOnly,
	}, func(e walEntry) error {
		s, err := sig.Decode(e.data)
		if err != nil {
			return err
		}
		id := s.ID()
		sh := st.sigShardOf(id)
		if _, dup := sh.present[id]; dup {
			return fmt.Errorf("duplicate record %s", id)
		}
		sh.present[id] = struct{}{}
		us := st.userShardOf(e.user)
		u, ok := us.users[e.user]
		if !ok {
			u = &userState{}
			us.users[e.user] = u
		}
		u.tops = append(u.tops, s.TopFrames())
		// Rebuild the daily budget: only records accepted during the
		// current UTC day still count against it.
		if day := e.unix / 86400; day == today {
			if u.day != today {
				u.day, u.used = today, 0
			}
			u.used++
		}
		recovered = append(recovered, Entry{User: e.user, Unix: e.unix, Data: e.data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.wal = wal
	st.log.Append(recovered)
	st.compacted.Store(int64(wal.snapCount))
	return st, nil
}

// Shards returns the partition count.
func (st *Store) Shards() int { return len(st.sigShards) }

// sigShardOf picks the duplicate-set partition for a signature ID.
// Inline FNV-1a: a hash.Hash32 would heap-allocate on every ADD.
func (st *Store) sigShardOf(id string) *sigShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &st.sigShards[h%uint32(len(st.sigShards))]
}

// userShardOf picks the validation-state partition for a user. The user
// id is mixed (splitmix64 finalizer) so sequentially issued ids spread
// across shards.
func (st *Store) userShardOf(user ids.UserID) *userShard {
	x := uint64(user)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &st.userShards[x%uint64(len(st.userShards))]
}

// Add validates and stores a signature from the given user. It returns
// (true, nil) when stored, (false, nil) when an identical signature is
// already present (idempotent upload), and (false, err) when rejected.
// On a durable store, (true, err) reports a signature that was accepted
// and published in memory but whose WAL write failed — the caller keeps
// serving it, durability is degraded.
func (st *Store) Add(user ids.UserID, s *sig.Signature) (bool, error) {
	if st.readOnly {
		return false, ErrReadOnly
	}
	added, entry, err := st.admit(user, s)
	if !added {
		return added, err
	}
	_, err = st.commit([]walEntry{entry})
	return true, err
}

// Upload is one (user, signature) pair for AddBatch.
type Upload struct {
	// User is the authenticated uploader.
	User ids.UserID
	// Sig is the uploaded signature.
	Sig *sig.Signature
}

// AddResult mirrors Add's return values for one AddBatch element.
type AddResult struct {
	// Added reports whether the signature entered the database.
	Added bool
	// Index is the 1-based log index the accepted signature was committed
	// at (0 for duplicates and rejections) — the watermark quorum
	// acknowledgement and client read-your-writes pin against.
	Index int
	// Err is the rejection (or, on a durable store, the WAL failure) for
	// this upload; nil for accepts and idempotent duplicates.
	Err error
}

// AddBatch validates and stores a batch of uploads, committing every
// accepted signature to the WAL and the log with a single append each —
// the batched ingestion path (one fsync covers the whole batch under
// FsyncAlways). Results are positional. Validation runs per upload under
// the relevant shard locks only; the commit locks are taken once for the
// whole batch. A WAL write failure is reported on every accepted upload
// of the batch, with Added still true (see Add).
func (st *Store) AddBatch(batch []Upload) []AddResult {
	results := make([]AddResult, len(batch))
	if st.readOnly {
		for i := range results {
			results[i] = AddResult{Err: ErrReadOnly}
		}
		return results
	}
	entries := make([]walEntry, 0, len(batch))
	for i, up := range batch {
		added, entry, err := st.admit(up.User, up.Sig)
		results[i] = AddResult{Added: added, Err: err}
		if added {
			entries = append(entries, entry)
		}
	}
	first, err := st.commit(entries)
	if first > 0 {
		idx := first
		for i := range results {
			if results[i].Added {
				results[i].Index = idx
				idx++
			}
		}
	}
	if err != nil {
		for i := range results {
			if results[i].Added {
				results[i].Err = err
			}
		}
	}
	return results
}

// commit makes a batch of accepted entries visible: WAL append first
// (write-ahead: nothing is acknowledged before it is on the log), then
// one atomic publish to the in-memory GET log. Both happen under walMu
// so the on-disk record order always matches the in-memory index order.
// The in-memory publish is unconditional — even when the WAL write
// fails, readers of this process see the batch and the error only
// reports lost durability. It returns the 1-based log index assigned to
// the batch's first entry (0 for an empty batch).
func (st *Store) commit(entries []walEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	batch := make([]Entry, len(entries))
	for i, e := range entries {
		batch[i] = Entry{User: e.user, Unix: e.unix, Data: e.data}
	}
	if st.wal == nil {
		return st.log.Append(batch), nil
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	err := st.wal.append(entries)
	first := st.log.Append(batch)
	// append may have rolled segments and compacted; publish the new
	// snapshot boundary for the replication read path.
	st.compacted.Store(int64(st.wal.snapCount))
	return first, err
}

// admit runs every ADD step except the commit: signature validation,
// duplicate detection (sig shard), and rate-limit + adjacency checks
// (user shard). On acceptance it marks the signature present and returns
// the WAL entry (uploader, accept time, encoding) for the caller to
// commit.
//
// Between admit marking a signature present and the caller publishing it
// there is a small window where a concurrent identical upload is
// acknowledged as a duplicate before GET exposes the signature; the
// publish always lands (admit's caller commits unconditionally), so the
// window only delays visibility, it never loses the signature.
func (st *Store) admit(user ids.UserID, s *sig.Signature) (bool, walEntry, error) {
	if err := s.Valid(); err != nil {
		return false, walEntry{}, fmt.Errorf("store: %w", err)
	}
	id := s.ID()
	tops := s.TopFrames()
	now := st.clock().UTC().Unix()
	today := now / 86400

	sh := st.sigShardOf(id)
	sh.mu.Lock()
	if _, dup := sh.present[id]; dup {
		sh.mu.Unlock()
		return false, walEntry{}, nil
	}

	us := st.userShardOf(user)
	us.mu.Lock()
	u, ok := us.users[user]
	if !ok {
		u = &userState{}
		us.users[user] = u
	}
	if err := u.check(tops, today, st.maxPerDay); err != nil {
		us.mu.Unlock()
		sh.mu.Unlock()
		return false, walEntry{}, err
	}
	// Encode only after every check has passed, matching the Locked
	// reference's ordering and cost profile: duplicates and rejected
	// uploads (the DoS case the daily limit exists for) never pay a
	// marshal. The encode runs under the two shard locks, which only
	// serializes it against same-shard traffic.
	data, err := sig.Encode(s)
	if err != nil {
		us.mu.Unlock()
		sh.mu.Unlock()
		return false, walEntry{}, fmt.Errorf("store: %w", err)
	}
	u.commit(tops)
	us.mu.Unlock()

	sh.present[id] = struct{}{}
	sh.mu.Unlock()
	return true, walEntry{user: user, unix: now, data: data}, nil
}

// Get returns the pre-encoded signatures from 1-based index from, plus
// the next index a client should request (database size + 1). from < 1 is
// treated as 1 (the paper's worst-case GET(0): send everything). Get is
// lock-free: it reads an atomic snapshot of the log and never blocks or
// is blocked by concurrent ADDs.
func (st *Store) Get(from int) ([]json.RawMessage, int) {
	return st.log.ReadFrom(from)
}

// GetPage is Get bounded to one reply page: at most maxCount signatures
// summing at most maxBytes encoded bytes (a single oversized signature
// still ships alone, so pages always make progress). It returns the
// page, the next index to request, and whether signatures remain past
// it. Zero caps mean unbounded. Like Get it is lock-free.
func (st *Store) GetPage(from, maxCount, maxBytes int) ([]json.RawMessage, int, bool) {
	return st.log.ReadPage(from, maxCount, maxBytes)
}

// Len returns the number of stored signatures.
func (st *Store) Len() int { return st.log.Len() }

// Users returns how many distinct users have contributed.
func (st *Store) Users() int {
	total := 0
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		total += len(us.users)
		us.mu.Unlock()
	}
	return total
}

// PersistStats reports the store's on-disk state. For an ephemeral store
// only Enabled=false is set.
func (st *Store) PersistStats() PersistStats {
	if st.wal == nil {
		return PersistStats{}
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.wal.stats()
}

// Close flushes and closes the write-ahead log (a no-op for an ephemeral
// store). The store must not be mutated afterwards; reads keep working.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.wal.close()
}

// ---- Replication interface ----
//
// The append-only log doubles as the replication stream: a follower
// reads full entries (signature bytes + commit metadata) from a cursor
// and applies them through ApplyReplicated, which rebuilds the exact
// validation state — dup set, adjacency tops, per-user budget — the
// primary computed, then commits through the same WAL path an ADD
// takes. See docs/ARCHITECTURE.md ("Replication").

// ErrCompacted is returned by EntryPage when the requested cursor
// predates the snapshot boundary: the range is only retained as folded
// snapshot state, so an incremental tail from there cannot be served —
// the follower must bootstrap (reset and resynchronize from index 1).
var ErrCompacted = errors.New("store: cursor predates snapshot boundary")

// CompactedThrough returns the snapshot boundary: the highest log index
// folded into the on-disk snapshot (0 when none, and always 0 on an
// ephemeral store).
func (st *Store) CompactedThrough() int {
	return int(st.compacted.Load())
}

// EntryPage returns one page of full log entries from 1-based index
// from, under the same paging contract as GetPage. A cursor at or below
// the snapshot boundary returns ErrCompacted unless bootstrap is set:
// a bootstrapping follower has discarded its local state and reads the
// authoritative prefix — the snapshot-covered range first, then the
// live log — from the beginning.
func (st *Store) EntryPage(from, maxCount, maxBytes int, bootstrap bool) ([]Entry, int, bool, error) {
	if from < 1 {
		from = 1
	}
	if !bootstrap && from <= st.CompactedThrough() {
		return nil, 0, false, ErrCompacted
	}
	entries, next, more := st.log.EntryPage(from, maxCount, maxBytes)
	return entries, next, more, nil
}

// ApplyReplicated applies a contiguous run of replicated entries whose
// first element has global index from. Entries at or below the current
// length are skipped (idempotent overlap, mirroring repo.Append); a gap
// past the current length is an error. Each new entry rebuilds the
// validation state exactly as recovery does — duplicate set, per-user
// adjacency tops, and the daily budget using the primary's commit
// timestamps — and the batch then commits through the WAL like any
// accepted upload, so a follower's directory is recoverable and
// re-shippable like a primary's. It returns how many entries were
// newly applied.
func (st *Store) ApplyReplicated(from int, entries []Entry) (int, error) {
	if st.readOnly {
		return 0, ErrReadOnly
	}
	st.replMu.Lock()
	defer st.replMu.Unlock()
	cur := st.Len()
	if from > cur+1 {
		return 0, fmt.Errorf("store: replication gap: have %d entries, page starts at %d", cur, from)
	}
	if skip := cur + 1 - from; skip > 0 {
		if skip >= len(entries) {
			return 0, nil
		}
		entries = entries[skip:]
	}
	today := st.clock().UTC().Unix() / 86400
	batch := make([]walEntry, 0, len(entries))
	for _, e := range entries {
		s, err := sig.Decode(e.Data)
		if err != nil {
			return 0, fmt.Errorf("store: replicated entry: %w", err)
		}
		id := s.ID()
		sh := st.sigShardOf(id)
		sh.mu.Lock()
		if _, dup := sh.present[id]; dup {
			sh.mu.Unlock()
			return 0, fmt.Errorf("store: replicated duplicate %s", id)
		}
		sh.present[id] = struct{}{}
		sh.mu.Unlock()

		us := st.userShardOf(e.User)
		us.mu.Lock()
		u, ok := us.users[e.User]
		if !ok {
			u = &userState{}
			us.users[e.User] = u
		}
		u.tops = append(u.tops, s.TopFrames())
		if day := e.Unix / 86400; day == today {
			if u.day != today {
				u.day, u.used = today, 0
			}
			u.used++
		}
		us.mu.Unlock()
		batch = append(batch, walEntry{user: e.User, unix: e.Unix, data: e.Data})
	}
	if _, err := st.commit(batch); err != nil {
		return len(batch), err
	}
	return len(batch), nil
}

// ResetReplica discards the store's entire contents — in-memory shards,
// log, and (when durable) every WAL segment and snapshot — leaving an
// empty store at the same epoch, ready for a bootstrap
// resynchronization. Only a follower whose cursor was fenced off or
// compacted away calls this; the caller is responsible for making sure
// no concurrent writers are active (a follower rejects ADDs, and the
// server drops client sessions around a reset).
func (st *Store) ResetReplica() error {
	if st.readOnly {
		return ErrReadOnly
	}
	st.replMu.Lock()
	defer st.replMu.Unlock()
	for i := range st.sigShards {
		sh := &st.sigShards[i]
		sh.mu.Lock()
		sh.present = make(map[string]struct{})
		sh.mu.Unlock()
	}
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		us.users = make(map[ids.UserID]*userState)
		us.mu.Unlock()
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	st.log.Reset()
	st.compacted.Store(0)
	if st.wal == nil {
		return nil
	}
	return st.wal.reset()
}

// ForceCompact seals the active WAL segment and folds everything sealed
// into the snapshot immediately, regardless of the CompactSegments
// threshold — the deterministic trigger the replication tests use to
// move the snapshot boundary mid-run. A no-op on an ephemeral store.
func (st *Store) ForceCompact() error {
	if st.readOnly {
		return ErrReadOnly
	}
	if st.wal == nil {
		return nil
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if err := st.wal.forceCompact(); err != nil {
		return err
	}
	st.compacted.Store(int64(st.wal.snapCount))
	return nil
}

// StateDigest returns a deterministic digest of the store's observable
// state: the signature log (bytes, in index order), the duplicate set,
// and the effective per-user validation state (adjacency top-frame
// sets plus today's remaining budget). Two stores with equal digests
// serve byte-identical GETs and make identical future validation
// decisions — the property the replication differential tests assert.
// Per-user tops are digested as a sorted multiset, so admission order
// differences between concurrent same-user uploads (which never affect
// decisions: adjacency is set-membership, not order) do not change the
// digest. Budget state is normalized to the current UTC day: stale
// windows count as a fresh budget, exactly as check() would treat them.
// Call it on quiescent stores; it takes each shard lock in turn, not a
// global snapshot.
func (st *Store) StateDigest() string {
	h := sha256.New()
	var num [8]byte

	// Log: length + every entry's metadata and bytes in index order.
	entries, _, _ := st.log.EntryPage(1, 0, 0)
	binary.BigEndian.PutUint64(num[:], uint64(len(entries)))
	h.Write(num[:])
	for _, e := range entries {
		binary.BigEndian.PutUint64(num[:], uint64(e.User))
		h.Write(num[:])
		binary.BigEndian.PutUint64(num[:], uint64(e.Unix))
		h.Write(num[:])
		h.Write(e.Data)
	}

	// Duplicate set, sorted.
	var dups []string
	for i := range st.sigShards {
		sh := &st.sigShards[i]
		sh.mu.Lock()
		for id := range sh.present {
			dups = append(dups, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(dups)
	for _, id := range dups {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}

	// Per-user state, sorted by user id: tops as a sorted multiset of
	// canonicalized sets, plus the effective budget for today.
	today := st.clock().UTC().Unix() / 86400
	type userDump struct {
		id   ids.UserID
		tops []string
		used int
	}
	var users []userDump
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		for id, u := range us.users {
			d := userDump{id: id}
			for _, set := range u.tops {
				frames := make([]string, 0, len(set))
				for f := range set {
					frames = append(frames, f)
				}
				sort.Strings(frames)
				d.tops = append(d.tops, joinFrames(frames))
			}
			sort.Strings(d.tops)
			if u.day == today {
				d.used = u.used
			}
			users = append(users, d)
		}
		us.mu.Unlock()
	}
	sort.Slice(users, func(i, j int) bool { return users[i].id < users[j].id })
	for _, d := range users {
		binary.BigEndian.PutUint64(num[:], uint64(d.id))
		h.Write(num[:])
		binary.BigEndian.PutUint64(num[:], uint64(d.used))
		h.Write(num[:])
		for _, t := range d.tops {
			h.Write([]byte(t))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// joinFrames flattens a sorted frame list with an unambiguous
// separator.
func joinFrames(frames []string) string {
	total := 0
	for _, f := range frames {
		total += len(f) + 1
	}
	b := make([]byte, 0, total)
	for _, f := range frames {
		b = append(b, f...)
		b = append(b, '\x1f')
	}
	return string(b)
}
