package dimmunix

import (
	"runtime"

	"communix/internal/sig"
)

// The acquisition fast path.
//
// The overwhelmingly common acquisition — a call stack matching no
// history signature, on a free lock — commutes with everything the
// runtime tracks: it occupies no signature slot (so avoidance never
// inspects it), and nobody waits on the lock (so detection never
// traverses it). Such acquisitions complete with a single CAS on the
// lock, touching neither rt.mu nor the history lock, and allocate
// nothing.
//
// An acquisition whose stack DOES match signatures takes the matched
// fast path (shard.go): the same claim, then threat evaluation and
// position registration under only the matched signatures' shard
// locks — rt.mu stays untouched unless a live threat forces a yield.
//
// Each Lock carries one atomic word, l.fast:
//
//	0                       — free and fast-eligible
//	tid | pending           — hold being published (outer stack not yet
//	                          visible; readers spin a few instructions)
//	tid | recursion<<48     — fast-held
//	slow bit                — managed by the slow path under rt.mu
//
// The hold's outer stack lives in the plain field l.fastOuter (and, for
// a matched hold, its shard slot keys in l.fastSlots), ordered by the
// word protocol: the owner writes them between the claiming CAS
// (0 → tid|pending) and the publishing store (→ tid); any reader first
// observes a published word through a successful CAS on l.fast, which
// happens-after the publish and therefore after the write. fastOuter is
// left stale on release — it is only ever read after revoking a
// published hold — while fastSlots is cleared (length zero) by the
// release itself, before the word goes free.
//
// Transitions:
//
//   - fast acquire:  CAS 0 → tid|pending, write outer, store tid — after
//     checking that the lock is registered for the refresh sweep; that
//     fact is re-validated while the word is still pending, and the
//     claim is aborted (store 0, slow path) if it changed underneath
//     (see fastAcquire). An unmatched claim also re-validates that the
//     index still misses the stack; a matched claim additionally takes
//     its signatures' shard locks, re-validates the index pointer and
//     the runtime's refreshed version, evaluates the instantiation
//     threat, and registers its positions before publishing
//     (matchedFastAcquire).
//   - fast release:  CAS tid → 0 (or recursion decrement), owner only;
//     a matched hold first unregisters its shard positions and wakes
//     the affected shards' yielders (unregisterFastHold), still while
//     owning the word.
//   - revocation:    CAS published word → slow bit, only under rt.mu
//     (revokeLocked); an interrupted fast release retries, observes the
//     slow bit, and falls through to the slow path.
//   - restoration:   slow → 0, only under rt.mu, once the lock is free
//     again with an empty queue (maybeRestoreFastLocked), so one
//     contended burst does not permanently tax a hot lock.
//
// Every slow-path entry point revokes the lock first, so the slow path's
// invariants are exactly the pre-fast-path ones: while a lock is
// slow-managed, all of its state is guarded by rt.mu.
//
// Soundness invariant: a fast-held lock's outer stack either matched no
// signature in the index current at its claim, or its positions were
// registered (under the matched signatures' shard locks) against that
// same index with the position table verifiably up to date
// (rt.histVer); the lock was registered for the sweep at publication,
// and refreshPositionsLocked (which runs under rt.mu before any
// avoidance decision once the history version changes) imports every
// live fast hold. An acquisition racing a signature install retreats to
// the slow path rather than keep a grant the new index might have
// suspended. Hence every avoidance evaluation sees a complete position
// table.

const (
	// fastSlowBit marks a slow-path-managed lock.
	fastSlowBit = uint64(1) << 63
	// fastPendingBit marks a claimed hold whose outer stack is still
	// being published.
	fastPendingBit = uint64(1) << 62
	// fastRecShift positions the 14-bit reentrancy counter.
	fastRecShift = 48
	fastRecUnit  = uint64(1) << fastRecShift
	fastRecMax   = (uint64(1) << 14) - 1
	// fastTidMax bounds thread ids representable in the word; the rare
	// caller above it (2^48 goroutines…) simply always takes the slow
	// path.
	fastTidMax = uint64(1)<<fastRecShift - 1
)

func fastWordTid(w uint64) ThreadID { return ThreadID(w & fastTidMax) }
func fastWordRec(w uint64) uint64   { return (w >> fastRecShift) & fastRecMax }

// fastAcquire tries to complete the acquisition without rt.mu. It
// reports whether the lock was granted; false means the caller must take
// the slow path (contention, index match, slow-managed lock, shutdown,
// or an unrepresentable thread id). A false return may carry the matched
// path's already-evaluated threat (threatCarry, with its yielder
// registered in the matched shards) for the slow path to adopt instead
// of re-evaluating; the caller must pass it to acquireSlow.
func (rt *Runtime) fastAcquire(tid ThreadID, l *Lock, cs sig.Stack) (bool, *threatCarry) {
	if uint64(tid) > fastTidMax {
		return false, nil
	}
	for {
		w := l.fast.Load()
		if w&fastSlowBit != 0 {
			return false, nil
		}
		if w&fastPendingBit != 0 {
			// Another acquirer is two instructions from publishing — unless
			// the scheduler preempted it there; yield so the publisher can
			// run (essential on GOMAXPROCS=1).
			runtime.Gosched()
			continue
		}
		if rt.closed.Load() {
			return false, nil
		}
		if w != 0 {
			if fastWordTid(w) != tid {
				// Fast-held by another thread: contention. The slow path
				// revokes and queues.
				return false, nil
			}
			// Reentrant hold. Like the slow path's reentrant branch this
			// bypasses avoidance and registers nothing: the hold's outer
			// stack was vetted when it was first granted.
			if fastWordRec(w) == fastRecMax {
				return false, nil // counter exhausted: continue in slow mode
			}
			if l.fast.CompareAndSwap(w, w+fastRecUnit) {
				return true, nil
			}
			continue // raced with revocation; retry
		}
		if !l.registered.Load() {
			// Pruned from the lock registry while free. A fast hold may
			// only be published on a registered lock — the history-refresh
			// sweep must be able to find it — so take the slow path once;
			// maybeRestoreFastLocked re-registers the lock before making
			// it fast-eligible again.
			return false, nil
		}
		idx := rt.history.Index()
		// Match the stack against the index without allocating in the
		// common cases: Candidates shares the index's own ref slice, and
		// a stack matching every candidate (almost always exactly one)
		// borrows it outright.
		var refs []SlotRef
		if cand := idx.Candidates(cs); len(cand) != 0 {
			n := 0
			for i := range cand {
				if cs.HasSuffix(cand[i].Sig.Threads[cand[i].Slot].Outer) {
					n++
				}
			}
			switch {
			case n == 0:
				// Top site collision only: unmatched.
			case n == len(cand):
				refs = cand
			default:
				refs = make([]SlotRef, 0, n)
				for i := range cand {
					if cs.HasSuffix(cand[i].Sig.Threads[cand[i].Slot].Outer) {
						refs = append(refs, cand[i])
					}
				}
			}
		}
		if len(refs) != 0 && rt.cfg.AvoidanceDisabled {
			// Matched, with avoidance switched off: the stack occupies a
			// signature slot and the global-mutex path must see it.
			return false, nil
		}
		if !l.fast.CompareAndSwap(0, uint64(tid)|fastPendingBit) {
			continue // lost to another acquirer or a revocation; re-evaluate
		}
		// The claim is exclusive but invisible (revokers wait out the
		// pending bit), so re-validate both eligibility facts before
		// publishing; aborting here is a plain store back to free.
		//
		// Registration: a concurrent prune can clear the flag after the
		// check above and drop the lock after reading the word as free.
		// Re-reading the flag after the claim decides (both sides are
		// SC atomics): flag still set — the prune must observe our claim
		// and keep the lock; flag clear — assume pruned and retreat.
		if !l.registered.Load() {
			l.fast.Store(0)
			return false, nil
		}
		if len(refs) != 0 {
			// Matched: evaluate the threat and register positions under
			// only the matched signatures' shard locks (shard.go). Failure
			// — a live threat, or the index moved — aborts the claim and
			// retreats to the slow path, which adopts the carried threat
			// (or re-evaluates, if the index moved) under rt.mu and yields
			// if it persists.
			ok, carry := rt.matchedFastAcquire(tid, l, cs, idx, refs)
			if !ok {
				l.fast.Store(0)
				return false, carry
			}
			return true, nil
		}
		// Index: a signature matching cs may have been installed since
		// the check above, and the refresh sweep may already have run
		// (against a free word). The reference path would evaluate
		// avoidance against the new index — possibly yielding — so no
		// grant may survive this race; retreat to the slow path.
		//
		// The raw published pointer is deliberately used instead of
		// Index(): Index() may block on h.mu for an O(S) rebuild, and
		// revokers busy-wait on our pending bit (one of them under
		// rt.mu). Soundness needs no rebuild here — every avoidance
		// decision runs after a refresh whose own Index() call publishes
		// the rebuilt pointer before its sweep reads our word, so if a
		// sweep could have missed this claim, the rebuilt pointer is
		// already visible to the load below; a still-unpublished install
		// has produced no decisions yet, and its eventual refresh sweep
		// will import the published hold.
		if idx2 := rt.history.idx.Load(); idx2 != idx && idx2.Matches(cs) {
			l.fast.Store(0)
			return false, nil
		}
		l.fastOuter = cs
		l.fastSlots = l.fastSlots[:0] // unmatched holds occupy no slots
		l.fastTop.Store(stackTopHash(cs))
		l.fast.Store(uint64(tid))
		rt.stats.acquisitions.Add(1)
		return true, nil
	}
}

// stackTopHash is frameFilterKey of a stack's top frame (0 for an empty
// stack) — what a published hold stores in l.fastTop for the incremental
// refresh sweep to filter on.
func stackTopHash(cs sig.Stack) uint64 {
	if len(cs) == 0 {
		return 0
	}
	return frameFilterKey(&cs[len(cs)-1])
}

// fastRelease tries to complete the release without rt.mu. It reports
// whether the release was handled; false sends the caller to the slow
// path (which also produces the not-owner error).
func (rt *Runtime) fastRelease(tid ThreadID, l *Lock) bool {
	for {
		w := l.fast.Load()
		if w&(fastSlowBit|fastPendingBit) != 0 || w == 0 || fastWordTid(w) != tid {
			// Slow-managed, mid-publication by another thread, free, or
			// foreign hold: the slow path sorts it out (a pending word
			// means someone else is acquiring a lock we do not own).
			return false
		}
		if fastWordRec(w) > 0 {
			if l.fast.CompareAndSwap(w, w-fastRecUnit) {
				return true
			}
			continue
		}
		if len(l.fastSlots) != 0 {
			// A matched hold: drop its signature positions and wake the
			// affected shards' yielders *before* freeing the word, so no
			// later acquisition can observe the lock free while the
			// positions still (or again) name this thread. Idempotent: it
			// clears l.fastSlots, so a retry after a mid-release
			// revocation skips it, and the revocation's import + the slow
			// path's release keep the books consistent either way.
			rt.unregisterFastHold(tid, l)
		}
		if l.fast.CompareAndSwap(w, 0) {
			// No waiters to promote and no rt.mu-side yielders to wake:
			// both require the lock to be slow-managed first.
			return true
		}
		// Revoked between load and CAS; next iteration sees the slow bit.
	}
}

// revokeLocked forces l into slow mode, importing any fast hold into the
// runtime's bookkeeping (thread table, held list, signature positions).
// Caller holds rt.mu. Idempotent and cheap when already slow.
//
// The CAS loop terminates: an unmatched pending publication clears
// within a few owner instructions, and a matched one within a bounded
// shard critical section (threat evaluation and registration under
// mutexes whose holders never block — see shard.go's hierarchy), so the
// spin is bounded even though a matched claim can hold the pending bit
// for longer than the original two-instruction window; any other
// interference means the fast owner made progress.
func (rt *Runtime) revokeLocked(l *Lock) {
	for {
		w := l.fast.Load()
		if w&fastSlowBit != 0 {
			return
		}
		if w&fastPendingBit != 0 {
			// Wait out the owner's two-instruction publish window, yielding
			// in case the owner was preempted inside it — this spin holds
			// rt.mu, so stalling here stalls the whole slow path.
			runtime.Gosched()
			continue
		}
		if !l.fast.CompareAndSwap(w, fastSlowBit) {
			continue
		}
		if w == 0 {
			return
		}
		// The successful CAS read the publishing store, so the plain read
		// of l.fastOuter below is ordered after the owner's write.
		tid := fastWordTid(w)
		ts := rt.thread(tid)
		h := &heldLock{lock: l, outer: l.fastOuter}
		// Re-derive the hold's slots from the current index rather than
		// trusting l.fastSlots: a matched hold's claim-time registrations
		// are either still in place (same index — these puts overwrite
		// them in place) or were cleared by a refresh (this re-registers
		// under the new index). Either way the shard state ends exactly
		// as if the hold had been slow-granted now.
		h.slots = rt.registerPositions(tid, l, h.outer)
		ts.held = append(ts.held, h)
		l.owner = tid
		l.ownerHold = h
		l.recursion = int(fastWordRec(w))
		return
	}
}

// maybeRestoreFastLocked returns a slow-managed lock to the fast path
// once it is free with no waiters, re-registering it first so the
// invariant "every fast-eligible lock is on the refresh sweep's work
// list" holds before the word goes free. Caller holds rt.mu. Kept slow
// after shutdown — acquisition is over anyway, and restoration would
// only race Close's bookkeeping for no benefit.
func (rt *Runtime) maybeRestoreFastLocked(l *Lock) {
	if l.owner == 0 && len(l.queue) == 0 && !rt.closed.Load() && l.fast.Load() == fastSlowBit {
		if !l.registered.Load() {
			rt.registerLock(l)
		}
		l.fast.Store(0)
	}
}

// fastSnapshot decodes the lock's fast word for tests and diagnostics.
// The outer stack is only meaningful while the hold it belongs to is
// still published; callers must be quiescent or hold rt.mu.
func (l *Lock) fastSnapshot() (tid ThreadID, outer sig.Stack, recursion int, slow bool) {
	w := l.fast.Load()
	if w&fastSlowBit != 0 {
		return 0, nil, 0, true
	}
	if w == 0 || w&fastPendingBit != 0 {
		return 0, nil, 0, false
	}
	return fastWordTid(w), l.fastOuter, int(fastWordRec(w)), false
}
