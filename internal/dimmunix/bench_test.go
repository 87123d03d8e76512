package dimmunix

import (
	"fmt"
	"sync/atomic"
	"testing"

	"communix/internal/sig"
)

// benchModes runs the sub-benchmarks across the two runtime modes: the
// full sharded fast path and the all-slow global-mutex reference.
var benchModes = []struct {
	name   string
	mutate func(*Config)
}{
	{"fastpath", func(*Config) {}},
	{"reference", func(c *Config) { c.FastPathDisabled = true }},
}

// BenchmarkAcquireReleaseUncontended measures the lock manager's base
// cost — the overhead every protected program pays on every critical
// section — on the lock-free fast path and the global-mutex reference,
// with an empty and a populated (never-matching) history.
func BenchmarkAcquireReleaseUncontended(b *testing.B) {
	for _, mode := range benchModes {
		for _, sigs := range []int{0, 64} {
			b.Run(fmt.Sprintf("%s/history=%d", mode.name, sigs), func(b *testing.B) {
				ps := newPairStacks()
				history := NewHistory()
				for i := 0; i < sigs; i++ {
					pad := ps.signature().Clone()
					pad.Threads[0].Outer[len(pad.Threads[0].Outer)-1] = sig.Frame{
						Class: fmt.Sprintf("pad%d", i), Method: "m", Line: 1,
					}
					pad.Normalize()
					history.Add(pad)
				}
				cfg := Config{History: history}
				mode.mutate(&cfg)
				rt := NewRuntime(cfg)
				defer rt.Close()
				l := rt.NewLock("l")
				cs := mkStack("T", "s", 10)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Acquire(1, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(1, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAcquireReleaseParallel runs the uncontended acquisition from
// GOMAXPROCS goroutines, each on a private lock with a non-empty
// history — the `-experiment runtime` sweep's headline configuration in
// go-bench form.
func BenchmarkAcquireReleaseParallel(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			cfg := Config{History: history}
			mode.mutate(&cfg)
			rt := NewRuntime(cfg)
			defer rt.Close()
			var nextTID atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tid := ThreadID(nextTID.Add(1))
				l := rt.NewLock("l")
				cs := mkStack(fmt.Sprintf("W%d", tid), "s", 10)
				for pb.Next() {
					if err := rt.Acquire(tid, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(tid, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAcquireReleaseMatchedParallel is the matched-path headline:
// every acquisition matches a history signature (registering a position
// and evaluating the instantiation threat) but never yields, from
// GOMAXPROCS goroutines each with a private lock and a private hot
// signature — the workload the per-signature shards exist for.
func BenchmarkAcquireReleaseMatchedParallel(b *testing.B) {
	// Distinct lock sites per signature (top frames differ), like real
	// applications: the avoidance index then yields exactly one candidate
	// per matched acquisition.
	mkHot := func(i int) (*sig.Signature, sig.Stack) {
		outer := mkStack(fmt.Sprintf("Hot%d", i), fmt.Sprintf("lock%d", i), 6)
		s := sig.New(
			sig.ThreadSpec{Outer: outer, Inner: mkStack(fmt.Sprintf("Hot%d", i), fmt.Sprintf("inner%d", i), 6)},
			sig.ThreadSpec{Outer: mkStack(fmt.Sprintf("Other%d", i), fmt.Sprintf("olock%d", i), 6), Inner: mkStack(fmt.Sprintf("Other%d", i), fmt.Sprintf("oinner%d", i), 6)},
		)
		s.Origin = sig.OriginRemote
		return s, outer
	}
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			history := NewHistory()
			const hotSigs = 64
			outers := make([]sig.Stack, hotSigs)
			for i := 0; i < hotSigs; i++ {
				s, outer := mkHot(i)
				history.Add(s)
				outers[i] = outer
			}
			cfg := Config{History: history}
			mode.mutate(&cfg)
			rt := NewRuntime(cfg)
			defer rt.Close()
			// Warm up: the first matched acquisition after a history
			// change refreshes the position table on the slow path.
			warm := rt.NewLock("warm")
			if err := rt.Acquire(1, warm, outers[0]); err != nil {
				b.Fatal(err)
			}
			if err := rt.Release(1, warm); err != nil {
				b.Fatal(err)
			}
			var nextTID atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tid := ThreadID(nextTID.Add(1))
				l := rt.NewLock("l")
				cs := outers[int(tid)%hotSigs]
				for pb.Next() {
					if err := rt.Acquire(tid, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(tid, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAcquireReleaseWithHistory measures the same operation when
// every acquisition matches a history signature slot (registration +
// threat evaluation) but never needs to yield.
func BenchmarkAcquireReleaseWithHistory(b *testing.B) {
	for _, sigs := range []int{1, 20, 200} {
		b.Run(fmt.Sprintf("sigs=%d", sigs), func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			// Pad the history with unrelated signatures: matching is
			// top-frame indexed, so size should barely matter.
			for i := 0; i < sigs-1; i++ {
				pad := ps.signature().Clone()
				pad.Threads[0].Outer[len(pad.Threads[0].Outer)-1] = sig.Frame{
					Class: fmt.Sprintf("pad%d", i), Method: "m", Line: 1,
				}
				pad.Normalize()
				history.Add(pad)
			}
			rt := NewRuntime(Config{History: history})
			defer rt.Close()
			l := rt.NewLock("l")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Acquire(1, l, ps.outerA); err != nil {
					b.Fatal(err)
				}
				if err := rt.Release(1, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAvoidanceAblation quantifies what disabling the avoidance
// module saves on matched acquisitions — the DESIGN.md ablation for
// Dimmunix's core design choice.
func BenchmarkAvoidanceAblation(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "avoidance-on"
		if disabled {
			name = "avoidance-off"
		}
		b.Run(name, func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			rt := NewRuntime(Config{History: history, AvoidanceDisabled: disabled})
			defer rt.Close()
			l := rt.NewLock("l")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rt.Acquire(1, l, ps.outerA); err != nil {
					b.Fatal(err)
				}
				if err := rt.Release(1, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistoryMatchOuter isolates the per-acquisition signature
// lookup.
func BenchmarkHistoryMatchOuter(b *testing.B) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if refs := history.MatchOuter(ps.outerA); len(refs) != 1 {
			b.Fatal("expected one match")
		}
	}
}

// BenchmarkContendedHandoff measures queue handoff between two threads.
func BenchmarkContendedHandoff(b *testing.B) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.Acquire(2, l, cs); err != nil {
				return
			}
			_ = rt.Release(2, l)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Acquire(1, l, cs); err != nil {
			b.Fatal(err)
		}
		_ = rt.Release(1, l)
	}
	b.StopTimer()
	close(stop)
	<-done
}
