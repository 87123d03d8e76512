package dimmunix

import (
	"errors"
	"testing"
)

// TestFastPathUncontendedStaysLockFree asserts the defining property of
// the fast path: an unmatched, uncontended acquisition never enters the
// global bookkeeping.
func TestFastPathUncontendedStaysLockFree(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 6)
	if err := rt.Acquire(1, l, cs); err != nil {
		t.Fatal(err)
	}
	tid, outer, _, slow := l.fastSnapshot()
	if slow || tid == 0 {
		t.Fatalf("lock not fast-held after uncontended acquire (tid=%d slow=%v)", tid, slow)
	}
	if tid != 1 || !outer.Equal(cs) {
		t.Errorf("fast hold = {tid %d, %v}", tid, outer)
	}
	rt.mu.Lock()
	nThreads := len(rt.threads)
	rt.mu.Unlock()
	if nThreads != 0 {
		t.Errorf("fast acquire leaked into the thread table (%d entries)", nThreads)
	}
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
	if got := l.fast.Load(); got != 0 {
		t.Errorf("lock not free after fast release (fast=%#x)", got)
	}
	if s := rt.Stats(); s.Acquisitions != 1 {
		t.Errorf("Acquisitions = %d, want 1", s.Acquisitions)
	}
}

func TestFastPathReentrant(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 6)
	for i := 0; i < 3; i++ {
		if err := rt.Acquire(7, l, cs); err != nil {
			t.Fatal(err)
		}
	}
	if tid, _, rec, slow := l.fastSnapshot(); slow || tid != 7 || rec != 2 {
		t.Fatalf("fast state = {tid %d, rec %d, slow %v}, want tid 7 rec 2", tid, rec, slow)
	}
	for i := 0; i < 3; i++ {
		if err := rt.Release(7, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Release(7, l); !errors.Is(err, ErrNotOwner) {
		t.Errorf("over-release = %v, want ErrNotOwner", err)
	}
}

// TestFastPathRevokeImportsHold drives a fast hold into contention and
// checks the hold is imported: the waiter queues behind the true owner
// and acquires after the (originally lock-free) hold is released.
func TestFastPathRevokeImportsHold(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 6)
	if err := rt.Acquire(1, l, cs); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, l, cs) }()
	eventually(t, func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return len(l.queue) == 1
	}, "waiter queued")
	// Contention revoked the fast hold and imported it.
	rt.mu.Lock()
	owner, holds := l.owner, len(rt.threads[1].held)
	rt.mu.Unlock()
	if owner != 1 || holds != 1 {
		t.Fatalf("imported owner=%d holds=%d, want 1/1", owner, holds)
	}
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, "waiter grant"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(2, l); err != nil {
		t.Fatal(err)
	}
	// Free again with an empty queue: the lock returns to the fast path.
	if got := l.fast.Load(); got != 0 {
		t.Errorf("lock not restored to fast mode after contention drained (fast=%#x)", got)
	}
	if err := rt.Acquire(3, l, cs); err != nil {
		t.Fatal(err)
	}
	if tid, _, _, slow := l.fastSnapshot(); slow || tid != 3 {
		t.Error("post-restore acquisition did not use the fast path")
	}
	_ = rt.Release(3, l)
	s := rt.Stats()
	if s.Acquisitions != 3 || s.Contended != 1 {
		t.Errorf("stats = %+v, want 3 acquisitions / 1 contended", s)
	}
}

// TestFastPathMatchedStackRegistersPositions: a stack matching a history
// signature must register its position — on the sharded matched fast
// path it does so while keeping the lock in fast mode, and the position
// is dropped again on release.
func TestFastPathMatchedStackRegistersPositions(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	h.Add(ps.signature())
	rt := NewRuntime(Config{History: h})
	defer rt.Close()
	l := rt.NewLock("l")
	// Warm up: the first matched acquisition after a history change runs
	// the slow path once to refresh the position table.
	if err := rt.Acquire(1, l, ps.outerA); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
	if err := rt.Acquire(1, l, ps.outerA); err != nil {
		t.Fatal(err)
	}
	if rt.positionCount() == 0 {
		t.Error("matched acquisition registered no signature positions")
	}
	if tid, _, _, slow := l.fastSnapshot(); slow || tid != 1 {
		t.Error("matched threat-free acquisition should stay on the fast path")
	}
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
	if rt.positionCount() != 0 {
		t.Error("positions leaked after release")
	}
}

// TestHistoryInstallImportsFastHold: installing a signature while a
// matching stack is fast-held must pull that hold into the position
// table before the next avoidance decision — the §II-A guarantee
// survives the agent's hot-swaps.
func TestHistoryInstallImportsFastHold(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	rt := NewRuntime(Config{History: h})
	defer rt.Close()
	a := rt.NewLock("A")
	b := rt.NewLock("B")

	// Empty history: this acquisition is lock-free.
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	if tid, _, _, slow := a.fastSnapshot(); slow || tid != 1 {
		t.Fatal("setup: hold is not on the fast path")
	}

	// The agent installs the signature matching the live hold.
	h.Add(ps.signature())

	// Thread 2 now attempts the complementary slot. Avoidance must see
	// thread 1's (previously invisible) hold and yield thread 2.
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, b, ps.outerB) }()
	eventually(t, func() bool { return rt.Stats().Yields > 0 }, "avoidance yield against imported fast hold")

	// The fast hold was imported during the refresh.
	rt.mu.Lock()
	owner := a.owner
	rt.mu.Unlock()
	if owner != 1 {
		t.Errorf("fast hold not imported on history change (owner=%d)", owner)
	}

	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, "thread 2 grant"); err != nil {
		t.Fatal(err)
	}
	_ = rt.Release(2, b)
}

func TestFastPathClosedRuntime(t *testing.T) {
	rt := NewRuntime(Config{})
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 4)
	if err := rt.Acquire(1, l, cs); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Acquire(2, rt.NewLock("m"), cs); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close = %v, want ErrClosed", err)
	}
	// A fast hold taken before Close still releases cleanly.
	if err := rt.Release(1, l); err != nil {
		t.Errorf("release after close = %v", err)
	}
}

func TestFastPathWrongOwnerRelease(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	if err := rt.Acquire(1, l, mkStack("T", "s", 4)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(2, l); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign release = %v, want ErrNotOwner", err)
	}
	// The failed release must not have broken the hold.
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathDisabledMatchesReferenceShape: with the knob set, every
// acquisition goes through the global path (the lock is slow-managed and
// the thread table is populated while held).
func TestFastPathDisabledMatchesReferenceShape(t *testing.T) {
	rt := NewRuntime(Config{FastPathDisabled: true})
	defer rt.Close()
	l := rt.NewLock("l")
	if err := rt.Acquire(1, l, mkStack("T", "s", 4)); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	_, tracked := rt.threads[1]
	rt.mu.Unlock()
	if !tracked {
		t.Error("reference mode must track the hold in the thread table")
	}
	if _, _, _, slow := l.fastSnapshot(); !slow {
		t.Error("reference mode left the lock fast-eligible")
	}
	if err := rt.Release(1, l); err != nil {
		t.Fatal(err)
	}
}

// TestLockRegistryPrunesDiscardedLocks guards the lock-registry bound:
// creating locks forever must not grow the refresh sweep's work list
// without bound, and a pruned lock must rejoin the registry (and stay
// visible to history hot-swaps) the moment it is acquired again.
func TestLockRegistryPrunesDiscardedLocks(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	rt := NewRuntime(Config{History: h})
	defer rt.Close()

	keeper := rt.NewLock("keeper")
	if err := rt.Acquire(1, keeper, mkStack("K", "k", 4)); err != nil {
		t.Fatal(err)
	}
	pruned := rt.NewLock("pruned")

	// Churn: create far more locks than the prune threshold.
	for i := 0; i < 3*lockRegistryFloor; i++ {
		rt.NewLock("churn")
	}
	rt.locksMu.Lock()
	size := len(rt.locks)
	rt.locksMu.Unlock()
	if size >= 2*lockRegistryFloor {
		t.Fatalf("registry holds %d locks after churn; pruning is not bounding it", size)
	}
	// The held lock must have survived every prune.
	if !keeper.registered.Load() {
		t.Error("held lock was pruned from the registry")
	}
	if pruned.registered.Load() {
		t.Error("free churned lock should have been pruned")
	}

	// A pruned lock is no longer fast-eligible: its next acquisition
	// goes through the slow path (tracked in the thread table), and its
	// release restores fast mode with the registration renewed.
	if err := rt.Acquire(2, pruned, ps.outerA); err != nil {
		t.Fatal(err)
	}
	if _, _, _, slow := pruned.fastSnapshot(); !slow {
		t.Fatal("pruned lock should have been acquired via the slow path")
	}
	// Being slow-managed, the hold is visible to avoidance the ordinary
	// way once a matching signature lands.
	h.Add(ps.signature())
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(3, rt.NewLock("other"), ps.outerB) }()
	eventually(t, func() bool { return rt.Stats().Yields > 0 }, "avoidance sees the slow-path hold")
	if err := rt.Release(2, pruned); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, "thread 3 grant"); err != nil {
		t.Fatal(err)
	}
	if !pruned.registered.Load() {
		t.Error("release did not re-register the lock")
	}
	if got := pruned.fast.Load(); got != 0 {
		t.Errorf("release did not restore fast mode (fast=%#x)", got)
	}
	// And the restored lock is fast-eligible again.
	if err := rt.Acquire(4, pruned, mkStack("Z", "z", 4)); err != nil {
		t.Fatal(err)
	}
	if tid, _, _, slow := pruned.fastSnapshot(); slow || tid != 4 {
		t.Error("re-registered lock did not take the fast path")
	}
	_ = rt.Release(4, pruned)
	_ = rt.Release(1, keeper)
}
