// Package dimmunix implements deadlock immunity for Go programs, after
// Dimmunix (Jula et al., OSDI'08) as summarized in the Communix paper
// (§II-A): a detection module finds deadlocks at runtime and fingerprints
// the execution flows that led to them (signatures), and an avoidance
// module steers thread schedules away from flows matching saved
// signatures by suspending threads whose lock acquisitions would
// instantiate a signature.
//
// The JVM version interposes on monitor bytecodes; Go offers no way to
// interpose on sync.Mutex, so programs participate explicitly: either by
// replacing sync.Mutex with Mutex (native Go stacks are captured
// automatically), or by driving the abstract Runtime API with explicit
// (thread, lock, call stack) events, which is how the benchmark workloads
// replay synthetic-application executions.
package dimmunix

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"communix/internal/sig"
)

// SlotRef identifies one thread slot of one history signature.
type SlotRef struct {
	// Sig is the signature.
	Sig *sig.Signature
	// Slot indexes Sig.Threads.
	Slot int
	// ID is Sig.ID(), precomputed at insertion: the avoidance hot path
	// keys its position index by it on every matched acquisition, and
	// recomputing the content hash there dominates runtime.
	ID string
}

// History is the persistent deadlock history: the set of signatures the
// avoidance module matches against (§II-A). It is safe for concurrent
// use; the Runtime reads it on every lock acquisition while the Communix
// agent adds, merges, and removes signatures.
type History struct {
	mu      sync.RWMutex
	sigs    map[string]*sig.Signature // by ID
	byBug   map[string][]string       // bug key -> IDs (generalization lookups)
	version uint64
	path    string // "" = in-memory only

	// idx is the immutable avoidance index, swapped with one atomic
	// store. Readers (the acquisition hot path) load it without taking
	// mu. Rebuilds are lazy: mutations only mark idxDirty, and the next
	// Index() call rebuilds once — so bulk ingestion (the agent
	// validating a large community repository at startup, one Add per
	// signature) stays O(S) instead of O(S²).
	idx      atomic.Pointer[AvoidIndex]
	idxDirty atomic.Bool

	// deltaRing is the per-version changelog: one entry per mutation
	// (version bump), recording exactly which signature instances the
	// mutation added and removed. Consumers (the Runtime's position
	// refresh) use DeltaSince to apply a version gap as a per-signature
	// delta instead of a full rebuild. The ring is bounded at
	// DeltaRingCap entries — a consumer further behind than the ring
	// covers (bulk ingestion, a long-idle runtime) falls back to a full
	// rebuild. Guarded by mu; every version++ records exactly one entry,
	// so ring versions are consecutive.
	deltaRing  []historyDelta
	deltaHead  int // index of the oldest entry
	deltaCount int
	// noChangelog makes recordDeltaLocked record nothing, so every
	// consumer refresh misses the ring and takes the full rebuild. Only
	// tests set it, to build the full-rebuild reference the incremental
	// refresh is compared against.
	noChangelog bool

	// Adaptive-cap bookkeeping. DeltaSince runs under mu.RLock, so its
	// observations are atomics; resize decisions are applied by the next
	// recordDeltaLocked, which holds mu for writing. deltaGrow is armed
	// when a consumer misses because the ring wrapped past it (a push
	// storm overran the cap); deltaHits/deltaMaxGap record how much of
	// the cap successful consumers actually use, driving the shrink.
	deltaGrow   atomic.Bool
	deltaHits   atomic.Uint64
	deltaMaxGap atomic.Uint64
}

// historyDelta is one mutation's signature churn. The recorded instances
// are the history's own stable normalized clones (instance identity is
// signature identity — the position-shard table is keyed by them).
type historyDelta struct {
	version uint64
	added   []*sig.Signature
	removed []*sig.Signature
}

// DeltaRingCap is the changelog ring's initial (and minimum) capacity.
// 256 mutations of slack covers any consumer that refreshes at all
// regularly (the runtime refreshes on every slow-path acquisition). The
// cap is adaptive: an overrun miss — a long-idle runtime waking up after
// a push storm wrapped the ring past it — arms a ×2 growth, applied by
// the next mutation, up to DeltaRingMaxCap; sustained small gaps shrink
// it back toward the minimum so an idle process doesn't pin storm-sized
// churn (each entry pins its added/removed signature instances).
const (
	DeltaRingCap    = 256
	DeltaRingMaxCap = 4096
	// deltaShrinkStreak is how many consecutive covered DeltaSince
	// calls — none using more than a quarter of the cap — it takes to
	// halve a grown ring.
	deltaShrinkStreak = 512
)

// recordDeltaLocked appends one changelog entry for the mutation that
// just bumped h.version, applying any pending cap resize first. Caller
// holds h.mu for writing.
func (h *History) recordDeltaLocked(added, removed []*sig.Signature) {
	if h.noChangelog {
		return
	}
	if h.deltaRing == nil {
		h.deltaRing = make([]historyDelta, DeltaRingCap)
	}
	h.resizeDeltaRingLocked()
	ringCap := len(h.deltaRing)
	d := historyDelta{version: h.version, added: added, removed: removed}
	if h.deltaCount == ringCap {
		h.deltaRing[h.deltaHead] = d
		h.deltaHead = (h.deltaHead + 1) % ringCap
		return
	}
	h.deltaRing[(h.deltaHead+h.deltaCount)%ringCap] = d
	h.deltaCount++
}

// resizeDeltaRingLocked applies the adaptive-cap policy: grow ×2 when a
// consumer overran the ring since the last mutation, shrink ÷2 when a
// long streak of consumers used at most a quarter of the cap. Entries
// are re-packed with the oldest at index 0; a shrink keeps the newest.
// Caller holds h.mu for writing.
func (h *History) resizeDeltaRingLocked() {
	oldCap := len(h.deltaRing)
	newCap := oldCap
	if h.deltaGrow.Swap(false) {
		if oldCap < DeltaRingMaxCap {
			newCap = oldCap * 2
			if newCap > DeltaRingMaxCap {
				newCap = DeltaRingMaxCap
			}
		}
	} else if oldCap > DeltaRingCap &&
		h.deltaHits.Load() >= deltaShrinkStreak &&
		h.deltaMaxGap.Load() <= uint64(oldCap/4) {
		newCap = oldCap / 2
		if newCap < DeltaRingCap {
			newCap = DeltaRingCap
		}
	}
	if newCap == oldCap {
		return
	}
	ring := make([]historyDelta, newCap)
	keep := h.deltaCount
	skip := 0
	if keep > newCap {
		skip = keep - newCap // shrink: drop the oldest
		keep = newCap
	}
	for i := 0; i < keep; i++ {
		ring[i] = h.deltaRing[(h.deltaHead+skip+i)%oldCap]
	}
	h.deltaRing = ring
	h.deltaHead = 0
	h.deltaCount = keep
	h.deltaHits.Store(0)
	h.deltaMaxGap.Store(0)
}

// DeltaSince folds the changelog entries covering versions (from, to]
// into net added/removed signature-instance sets. ok=false means the
// ring no longer covers the gap (the consumer is too far behind, or the
// gap includes bulk ingestion that overran the ring) and the consumer
// must fall back to a full rebuild. A signature added and then removed
// within the gap cancels out — the consumer never saw it, so nothing
// needs touching; the reverse order cannot occur because a re-added
// signature is always a fresh clone instance.
func (h *History) DeltaSince(from, to uint64) (added, removed []*sig.Signature, ok bool) {
	if from > to {
		return nil, nil, false
	}
	if from == to {
		return nil, nil, true
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.deltaCount == 0 {
		return nil, nil, false
	}
	ringCap := len(h.deltaRing)
	oldest := h.deltaRing[h.deltaHead].version
	newest := oldest + uint64(h.deltaCount) - 1
	if from+1 < oldest || to > newest {
		// A wrapped ring that lost the consumer's gap is a capacity
		// miss: arm a growth so the next storm of this size is covered.
		// (to > newest is the consumer asking past the current version —
		// no cap would help that.)
		if from+1 < oldest && h.deltaCount == ringCap {
			h.deltaGrow.Store(true)
		}
		return nil, nil, false
	}
	h.deltaHits.Add(1)
	gap := to - from
	for {
		cur := h.deltaMaxGap.Load()
		if gap <= cur || h.deltaMaxGap.CompareAndSwap(cur, gap) {
			break
		}
	}
	addSet := make(map[*sig.Signature]struct{}, 2)
	var rem []*sig.Signature
	for v := from + 1; v <= to; v++ {
		d := &h.deltaRing[(h.deltaHead+int(v-oldest))%ringCap]
		for _, s := range d.added {
			addSet[s] = struct{}{}
		}
		for _, s := range d.removed {
			if _, pending := addSet[s]; pending {
				delete(addSet, s) // added and removed inside the gap: net no-op
			} else {
				rem = append(rem, s)
			}
		}
	}
	add := make([]*sig.Signature, 0, len(addSet))
	for v := from + 1; v <= to; v++ { // deterministic order: ring order
		d := &h.deltaRing[(h.deltaHead+int(v-oldest))%ringCap]
		for _, s := range d.added {
			if _, live := addSet[s]; live {
				add = append(add, s)
				delete(addSet, s)
			}
		}
	}
	return add, rem, true
}

// NewHistory returns an empty, in-memory history.
func NewHistory() *History {
	h := &History{
		sigs:  make(map[string]*sig.Signature),
		byBug: make(map[string][]string),
	}
	h.idx.Store(emptyIndex)
	return h
}

// LoadHistory opens (or initializes) a history persisted at path. A
// missing file yields an empty history bound to the path; a corrupt file
// is an error.
func LoadHistory(path string) (*History, error) {
	h := NewHistory()
	h.path = path
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return h, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dimmunix: load history: %w", err)
	}
	var file historyFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("dimmunix: load history %s: %w", path, err)
	}
	for i, raw := range file.Signatures {
		s, err := sig.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("dimmunix: load history %s: signature %d: %w", path, i, err)
		}
		s.Origin = sig.OriginLocal
		if i < len(file.Origins) && file.Origins[i] == "remote" {
			s.Origin = sig.OriginRemote
		}
		h.addLocked(s)
	}
	return h, nil
}

// historyFile is the on-disk representation.
type historyFile struct {
	Signatures []json.RawMessage `json:"signatures"`
	Origins    []string          `json:"origins"`
}

// Add inserts a signature unless an identical one is present. It returns
// true when the history changed.
func (h *History) Add(s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addLocked(s)
}

func (h *History) addLocked(s *sig.Signature) bool {
	stored := h.insertLocked(s)
	if stored == nil {
		return false
	}
	h.version++
	h.idxDirty.Store(true)
	h.recordDeltaLocked([]*sig.Signature{stored}, nil)
	return true
}

// insertLocked stores a normalized clone of s unless its ID is already
// present, returning the stored instance (nil if it was a duplicate).
// It does not bump the version — callers decide how the insertion folds
// into a changelog entry.
func (h *History) insertLocked(s *sig.Signature) *sig.Signature {
	id := s.ID()
	if _, ok := h.sigs[id]; ok {
		return nil
	}
	s = s.Clone()
	s.Normalize()
	h.sigs[id] = s
	bug := s.BugKey()
	h.byBug[bug] = append(h.byBug[bug], id)
	return s
}

// rebuildIndexLocked publishes a fresh immutable avoidance index
// reflecting the current signature set. Caller holds h.mu for writing.
// Slot references under each top site are sorted for deterministic
// matching order (map iteration would otherwise make avoidance's
// first-threat selection run-dependent).
func (h *History) rebuildIndexLocked() {
	ix := buildIndex(h.version, h.sigs)
	for _, refs := range ix.byTop {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].ID != refs[j].ID {
				return refs[i].ID < refs[j].ID
			}
			return refs[i].Slot < refs[j].Slot
		})
	}
	h.idx.Store(ix)
	h.idxDirty.Store(false)
}

// Index returns the current immutable avoidance index, rebuilding it
// first if mutations happened since the last build. It never returns
// nil, and on the hot path (no pending mutations) costs two atomic
// loads and no lock.
func (h *History) Index() *AvoidIndex {
	if h.idxDirty.Load() {
		h.mu.Lock()
		if h.idxDirty.Load() {
			h.rebuildIndexLocked()
		}
		h.mu.Unlock()
	}
	return h.idx.Load()
}

// dropBugLocked removes id from the bug index.
func (h *History) dropBugLocked(s *sig.Signature, id string) {
	bug := s.BugKey()
	ids := h.byBug[bug]
	out := ids[:0]
	for _, other := range ids {
		if other != id {
			out = append(out, other)
		}
	}
	if len(out) == 0 {
		delete(h.byBug, bug)
	} else {
		h.byBug[bug] = out
	}
}

// Remove deletes the signature with the given ID, returning whether it
// was present. The false-positive mechanism (§III-C1) uses it when the
// user decides to drop a warned signature.
func (h *History) Remove(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sigs[id]
	if !ok {
		return false
	}
	delete(h.sigs, id)
	h.dropBugLocked(s, id)
	h.version++
	h.idxDirty.Store(true)
	h.recordDeltaLocked(nil, []*sig.Signature{s})
	return true
}

// Replace swaps an existing signature (by ID) for another in one step —
// how generalization installs a merged signature in place of the old one.
// If oldID is absent the new signature is still added. It reports whether
// the history changed. The swap is one mutation: one version bump, one
// changelog entry carrying both the removal and the addition, so delta
// consumers apply it atomically (pure removal and pure addition — the
// degenerate cases — also record exactly one entry).
func (h *History) Replace(oldID string, s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.ID() == oldID {
		return false
	}
	var removed []*sig.Signature
	if old, ok := h.sigs[oldID]; ok {
		delete(h.sigs, oldID)
		h.dropBugLocked(old, oldID)
		removed = []*sig.Signature{old}
	}
	var added []*sig.Signature
	if stored := h.insertLocked(s); stored != nil {
		added = []*sig.Signature{stored}
	}
	if removed == nil && added == nil {
		return false
	}
	h.version++
	h.idxDirty.Store(true)
	h.recordDeltaLocked(added, removed)
	return true
}

// Get returns the signature with the given ID, or nil.
func (h *History) Get(id string) *sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sigs[id]
}

// All returns a snapshot of the signatures (clones, in unspecified order).
func (h *History) All() []*sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*sig.Signature, 0, len(h.sigs))
	for _, s := range h.sigs {
		out = append(out, s.Clone())
	}
	return out
}

// Len returns the number of signatures.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sigs)
}

// Version increments on every mutation; the Runtime uses it to notice
// agent updates and re-register held-lock positions. It goes through
// Index() so pending mutations are reflected.
func (h *History) Version() uint64 {
	return h.Index().version
}

// MatchOuter returns every signature slot whose outer call stack is a
// suffix of cs. It reads the immutable avoidance index — pre-grouped by
// outer top frame — so only signatures locking at cs's top site are
// inspected, without taking any lock in steady state.
func (h *History) MatchOuter(cs sig.Stack) []SlotRef {
	return h.Index().Match(cs)
}

// HasBug reports whether some history signature fingerprints the same
// deadlock bug as s.
func (h *History) HasBug(s *sig.Signature) bool {
	key := s.BugKey()
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.byBug[key]) > 0
}

// SameBug returns the history signatures fingerprinting the same deadlock
// bug as s — the generalization candidates (§III-D) — together with their
// IDs. The returned signatures are the history's own instances: callers
// must treat them as read-only. The bug index makes this O(candidates),
// keeping the agent's startup pass linear in inspected signatures.
func (h *History) SameBug(s *sig.Signature) []SlotRef {
	key := s.BugKey()
	h.mu.RLock()
	defer h.mu.RUnlock()
	ids := h.byBug[key]
	out := make([]SlotRef, 0, len(ids))
	for _, id := range ids {
		if existing, ok := h.sigs[id]; ok {
			out = append(out, SlotRef{Sig: existing, ID: id})
		}
	}
	return out
}

// Save persists the history to its bound path (no-op for in-memory
// histories). The write is atomic: temp file then rename.
func (h *History) Save() error {
	h.mu.RLock()
	path := h.path
	h.mu.RUnlock()
	if path == "" {
		return nil
	}
	return h.SaveTo(path)
}

// SaveTo persists the history to an explicit path.
func (h *History) SaveTo(path string) error {
	h.mu.RLock()
	file := historyFile{
		Signatures: make([]json.RawMessage, 0, len(h.sigs)),
		Origins:    make([]string, 0, len(h.sigs)),
	}
	ids := make([]string, 0, len(h.sigs))
	for id := range h.sigs {
		ids = append(ids, id)
	}
	// Deterministic output order.
	sort.Strings(ids)
	var encodeErr error
	for _, id := range ids {
		s := h.sigs[id]
		data, err := sig.Encode(s)
		if err != nil {
			encodeErr = err
			break
		}
		file.Signatures = append(file.Signatures, data)
		file.Origins = append(file.Origins, s.Origin.String())
	}
	h.mu.RUnlock()
	if encodeErr != nil {
		return fmt.Errorf("dimmunix: save history: %w", encodeErr)
	}

	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".history-*")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	return nil
}
