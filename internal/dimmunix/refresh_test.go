package dimmunix

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"communix/internal/sig"
)

// Tests for the incremental history refresh (delta application), the
// matched fast path's yield carryover, the yielder re-home timeout, and
// the lock registry's cold-slow-lock aging.

// shardDigest renders the runtime's registered position state in a
// runtime-independent form: one line per (signature ID, slot, thread,
// lock name) entry, sorted. Empty shards and each hold's fast-vs-slow
// management mode are deliberately invisible — two runtimes whose
// decisions agree may cache different shard objects and keep different
// holds published, but must register exactly the same positions.
func (rt *Runtime) shardDigest() string {
	var lines []string
	rt.shards.Range(func(key, value any) bool {
		id := key.(*sig.Signature).ID()
		sh := value.(*sigShard)
		sh.mu.Lock()
		for slot, m := range sh.slots {
			for tid, locks := range m {
				for l := range locks {
					lines = append(lines, fmt.Sprintf("%s/%d/%d/%s", id, slot, tid, l.name))
				}
			}
		}
		sh.mu.Unlock()
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// refreshTestSig builds a two-thread signature with outer stacks unique
// to n. The digest fuzz only ever acquires with one of the two outer
// stacks, so the other slot stays empty and no acquisition can ever be
// suspended — keeping the single-goroutine driver fully synchronous.
func refreshTestSig(n int) *sig.Signature {
	s := sig.New(
		sig.ThreadSpec{
			Outer: mkStack(fmt.Sprintf("RF%dA", n), fmt.Sprintf("rf%da", n), 5),
			Inner: mkStack(fmt.Sprintf("RF%dA", n), fmt.Sprintf("rf%dai", n), 5),
		},
		sig.ThreadSpec{
			Outer: mkStack(fmt.Sprintf("RF%dB", n), fmt.Sprintf("rf%db", n), 5),
			Inner: mkStack(fmt.Sprintf("RF%dB", n), fmt.Sprintf("rf%dbi", n), 5),
		},
	)
	s.Origin = sig.OriginLocal
	return s
}

// fullRebuildHistory returns an empty history that records no
// changelog: a runtime over it finds no delta covering any version gap,
// so every refresh it takes is a full rebuild — the reference the
// incremental refresh is tested against.
func fullRebuildHistory() *History {
	h := NewHistory()
	h.noChangelog = true
	return h
}

// TestDifferentialIncrementalRefreshDigest drives an incremental-refresh
// runtime and a full-rebuild reference (fullRebuildHistory) through
// identical fuzzed interleavings of acquisitions, releases, and
// history Add/Remove/Replace mutations, forcing a refresh and comparing
// the full registered-position digest at every settle point. Any state
// the delta application computes differently from a rebuild-from-scratch
// shows up as a digest divergence.
func TestDifferentialIncrementalRefreshDigest(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRefreshDigestScript(t, rand.New(rand.NewSource(seed)), 500)
		})
	}
}

func runRefreshDigestScript(t *testing.T, r *rand.Rand, ops int) {
	const (
		nLocks   = 16
		nThreads = 6
		catalog  = 8
	)
	type catSig struct {
		s     *sig.Signature
		outer sig.Stack // the one outer stack acquisitions use
		in    bool      // currently installed in both histories
	}
	inc := NewRuntime(Config{Policy: RecoverBreak})
	ref := NewRuntime(Config{History: fullRebuildHistory(), Policy: RecoverBreak})
	defer inc.Close()
	defer ref.Close()
	var incLocks, refLocks []*Lock
	for i := 0; i < nLocks; i++ {
		incLocks = append(incLocks, inc.NewLock(fmt.Sprintf("L%d", i)))
		refLocks = append(refLocks, ref.NewLock(fmt.Sprintf("L%d", i)))
	}

	next := 0
	newCat := func() *catSig {
		s := refreshTestSig(next)
		next++
		return &catSig{s: s, outer: s.Threads[0].Outer.Clone()}
	}
	cats := make([]*catSig, catalog)
	for i := range cats {
		cats[i] = newCat()
	}
	unmatched := []sig.Stack{
		mkStack("U0", "u0", 5),
		mkStack("U1", "u1", 4),
		mkStack("U2", "u2", 6),
	}

	owner := make([]ThreadID, nLocks)
	mustAcq := func(tid ThreadID, li int, cs sig.Stack) {
		if err := inc.Acquire(tid, incLocks[li], cs); err != nil {
			t.Fatalf("incremental acquire(t%d, L%d): %v", tid, li, err)
		}
		if err := ref.Acquire(tid, refLocks[li], cs); err != nil {
			t.Fatalf("reference acquire(t%d, L%d): %v", tid, li, err)
		}
		owner[li] = tid
	}
	mustRel := func(li int) {
		tid := owner[li]
		if err := inc.Release(tid, incLocks[li]); err != nil {
			t.Fatalf("incremental release(t%d, L%d): %v", tid, li, err)
		}
		if err := ref.Release(tid, refLocks[li]); err != nil {
			t.Fatalf("reference release(t%d, L%d): %v", tid, li, err)
		}
		owner[li] = 0
	}
	compare := func(when string) {
		for _, rt := range []*Runtime{inc, ref} {
			rt.mu.Lock()
			rt.refreshPositionsLocked()
			rt.mu.Unlock()
		}
		if di, dr := inc.shardDigest(), ref.shardDigest(); di != dr {
			t.Fatalf("digest divergence %s:\nincremental:\n%s\n\nfull-rebuild:\n%s", when, di, dr)
		}
	}

	for i := 0; i < ops; i++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3, 4: // acquire on a free lock
			li := r.Intn(nLocks)
			if owner[li] != 0 {
				continue
			}
			tid := ThreadID(1 + r.Intn(nThreads))
			cs := cats[r.Intn(catalog)].outer
			if r.Intn(4) == 0 {
				cs = unmatched[r.Intn(len(unmatched))]
			}
			mustAcq(tid, li, cs)
		case 5, 6: // release
			li := r.Intn(nLocks)
			if owner[li] == 0 {
				continue
			}
			mustRel(li)
		case 7: // hot-swap: add
			c := cats[r.Intn(catalog)]
			if c.in {
				continue
			}
			if inc.History().Add(c.s) != ref.History().Add(c.s) {
				t.Fatal("add divergence")
			}
			c.in = true
			if r.Intn(3) > 0 { // sometimes leave the gap to accumulate
				compare(fmt.Sprintf("after add at op %d", i))
			}
		case 8: // hot-swap: remove
			c := cats[r.Intn(catalog)]
			if !c.in {
				continue
			}
			if inc.History().Remove(c.s.ID()) != ref.History().Remove(c.s.ID()) {
				t.Fatal("remove divergence")
			}
			c.in = false
			if r.Intn(3) > 0 {
				compare(fmt.Sprintf("after remove at op %d", i))
			}
		case 9: // hot-swap: replace an installed signature with a fresh one
			ci := r.Intn(catalog)
			c := cats[ci]
			if !c.in {
				continue
			}
			fresh := newCat()
			if inc.History().Replace(c.s.ID(), fresh.s) != ref.History().Replace(c.s.ID(), fresh.s) {
				t.Fatal("replace divergence")
			}
			fresh.in = true
			cats[ci] = fresh
			if r.Intn(3) > 0 {
				compare(fmt.Sprintf("after replace at op %d", i))
			}
		case 10, 11: // settle point
			compare(fmt.Sprintf("at op %d", i))
		}
	}

	// Bulk ingestion: overflow the changelog ring in one gap, forcing the
	// incremental runtime through the full-rebuild fallback.
	for k := 0; k < DeltaRingCap+32; k++ {
		c := newCat()
		inc.History().Add(c.s)
		ref.History().Add(c.s)
	}
	compare("after bulk ingestion")

	delta, full := inc.RefreshCounts()
	if delta == 0 {
		t.Error("incremental runtime never took the delta path")
	}
	if full == 0 {
		t.Error("incremental runtime never fell back to a full rebuild (bulk overflow should force one)")
	}
	if rd, _ := ref.RefreshCounts(); rd != 0 {
		t.Errorf("reference runtime took %d delta refreshes despite recording no changelog", rd)
	}
}

// TestYieldCarryoverAdoption pins the matched fast path's threat
// carryover: the fast attempt that detects the threat registers its
// yielder in the matched shards, the slow path adopts it (one yield, no
// re-evaluation), and the blocker's lock-free release wakes it through
// the shard.
func TestYieldCarryoverAdoption(t *testing.T) {
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	ps := newPairStacks()
	rt.History().Add(ps.signature())
	a, b := rt.NewLock("A"), rt.NewLock("B")

	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, b, ps.outerB) }()
	eventually(t, func() bool {
		rt.mu.Lock()
		_, parked := rt.yielders[2]
		rt.mu.Unlock()
		return parked
	}, "thread 2 parked as a yielder")
	if y := rt.Stats().Yields; y != 1 {
		t.Fatalf("yields = %d, want exactly 1 (carried threat must not be re-counted)", y)
	}
	// The carried yielder is registered in the matched signature's shard,
	// where the blocker's matched fast release will find it.
	inShard := 0
	rt.shards.Range(func(_, v any) bool {
		sh := v.(*sigShard)
		sh.mu.Lock()
		if _, ok := sh.yielders[2]; ok {
			inShard++
		}
		sh.mu.Unlock()
		return true
	})
	if inShard == 0 {
		t.Fatal("carried yielder not registered in any shard")
	}

	// Thread 1's release is a matched fast release: it never takes rt.mu,
	// so only the shard registration can deliver the wake.
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, "thread 2 after the blocker released"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(2, b); err != nil {
		t.Fatal(err)
	}
	// No ghost registrations left behind.
	rt.shards.Range(func(_, v any) bool {
		sh := v.(*sigShard)
		sh.mu.Lock()
		n := len(sh.yielders)
		sh.mu.Unlock()
		if n != 0 {
			t.Errorf("shard still lists %d yielders after completion", n)
		}
		return true
	})
}

// TestYieldRehomeAfterSignatureRemoval covers the two ways a parked
// yielder learns its signature is gone: the full rebuild drops its shard
// without a wake (no future release could route one there) and the park
// re-homes on its own timeout; the incremental delta wakes the removed
// shard's yielders directly.
func TestYieldRehomeAfterSignatureRemoval(t *testing.T) {
	park := func(t *testing.T, rt *Runtime) (a, b *Lock, done chan error) {
		t.Helper()
		ps := newPairStacks()
		rt.History().Add(ps.signature())
		a, b = rt.NewLock("A"), rt.NewLock("B")
		if err := rt.Acquire(1, a, ps.outerA); err != nil {
			t.Fatal(err)
		}
		done = make(chan error, 1)
		go func() { done <- rt.Acquire(2, b, ps.outerB) }()
		eventually(t, func() bool {
			rt.mu.Lock()
			_, parked := rt.yielders[2]
			rt.mu.Unlock()
			return parked
		}, "thread 2 parked as a yielder")
		rt.History().Remove(ps.signature().ID())
		rt.mu.Lock()
		rt.refreshPositionsLocked()
		rt.mu.Unlock()
		return a, b, done
	}

	t.Run("full-rebuild-rehome-timeout", func(t *testing.T) {
		old := yieldRehomeNanos.Load()
		yieldRehomeNanos.Store(int64(50 * time.Millisecond))
		defer yieldRehomeNanos.Store(old)

		rt := NewRuntime(Config{History: fullRebuildHistory(), Policy: RecoverBreak})
		defer rt.Close()
		a, b, done := park(t, rt)
		if delta, full := rt.RefreshCounts(); delta != 0 || full == 0 {
			t.Errorf("removal was not applied as a full rebuild: %d delta, %d full refreshes", delta, full)
		}
		// The rebuild dropped the yielder's only shard without waking it;
		// the shortened re-home timeout must complete the acquisition.
		if err := waitErr(t, done, "thread 2 re-homing after its signature vanished"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(2, b); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("delta-immediate-wake", func(t *testing.T) {
		// A re-home interval far beyond the test deadline: only the delta
		// application's removed-shard wake can complete the acquisition.
		old := yieldRehomeNanos.Load()
		yieldRehomeNanos.Store(int64(time.Minute))
		defer yieldRehomeNanos.Store(old)

		rt := NewRuntime(Config{Policy: RecoverBreak})
		defer rt.Close()
		a, b, done := park(t, rt)
		if err := waitErr(t, done, "thread 2 woken by the delta removal"); err != nil {
			t.Fatal(err)
		}
		if delta, _ := rt.RefreshCounts(); delta == 0 {
			t.Error("removal was not applied as a delta")
		}
		if err := rt.Release(2, b); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockRegistryDropsColdSlowLocks pins the prune's generation
// heuristic: a lock parked free in slow mode survives exactly
// lockSlowKeepGenerations prunes and is dropped by the next one, and a
// dropped lock remains fully functional (its next slow acquisition and
// release re-register it).
func TestLockRegistryDropsColdSlowLocks(t *testing.T) {
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	const n = 64
	var cold []*Lock
	for i := 0; i < n; i++ {
		l := rt.NewLock(fmt.Sprintf("cold%d", i))
		// Park it free in slow mode, as an acquisition that errored out
		// (or a matched claim that retreated) would leave it.
		rt.mu.Lock()
		rt.revokeLocked(l)
		rt.mu.Unlock()
		cold = append(cold, l)
	}
	prune := func() {
		rt.locksMu.Lock()
		rt.pruneLocksLocked()
		rt.locksMu.Unlock()
	}
	for gen := 1; gen <= lockSlowKeepGenerations; gen++ {
		prune()
		if got := rt.registrySize(); got != n {
			t.Fatalf("prune %d dropped cold slow locks early: registry = %d, want %d", gen, got, n)
		}
	}
	prune()
	if got := rt.registrySize(); got != 0 {
		t.Fatalf("cold slow locks survived %d prunes: registry = %d, want 0", lockSlowKeepGenerations+1, got)
	}

	// A dropped slow lock still works: the acquisition takes the slow
	// path (the word still carries the slow bit) and the release restores
	// and re-registers it.
	l := cold[0]
	if err := rt.Acquire(7, l, mkStack("C", "c", 4)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(7, l); err != nil {
		t.Fatal(err)
	}
	if got := rt.registrySize(); got != 1 {
		t.Fatalf("released lock did not re-register: registry = %d, want 1", got)
	}
}

// TestLockRegistryChurnColdSlowLocks stresses the discard pattern the
// heuristic exists for: an application churns locks through one
// contended burst each, leaves every one parked in slow mode, and never
// touches them again. The registry must not retain them forever.
func TestLockRegistryChurnColdSlowLocks(t *testing.T) {
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	total := 2 * lockRegistryFloor
	for i := 0; i < total; i++ {
		l := rt.NewLock(fmt.Sprintf("churn%d", i))
		rt.mu.Lock()
		rt.revokeLocked(l)
		rt.mu.Unlock()
	}
	if got := rt.registrySize(); got >= total {
		t.Fatalf("no in-band prune fired during churn: registry = %d", got)
	}
	// A few quiescent prunes age out every remaining cold lock.
	for i := 0; i <= lockSlowKeepGenerations; i++ {
		rt.locksMu.Lock()
		rt.pruneLocksLocked()
		rt.locksMu.Unlock()
	}
	if got := rt.registrySize(); got != 0 {
		t.Fatalf("cold slow locks retained after aging: registry = %d, want 0", got)
	}
}
