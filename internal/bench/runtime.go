package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// RuntimeBenchConfig parameterizes the acquisition hot-path experiment:
// G goroutines each hammer a private lock (uncontended — the §II-A
// common case) under a history of S signatures, with a configurable
// fraction of acquisitions using a call stack that matches a history
// signature. Every point runs twice:
//
//   - "reference": every acquisition through the global-mutex slow path
//     (dimmunix.Config.FastPathDisabled) — the original semantics.
//   - "sharded": the full runtime — unmatched acquisitions take the
//     lock-free fast path, matched ones only their signatures' position
//     shards.
type RuntimeBenchConfig struct {
	// Goroutines sweeps the concurrency axis (default 1, 2, 4, 8, 16,
	// 32, 64).
	Goroutines []int
	// HistorySizes sweeps the installed-signature count (default 0, 64,
	// 512). Matching is top-frame indexed, so size should barely matter —
	// the sweep verifies that.
	HistorySizes []int
	// MatchPercents sweeps the fraction of acquisitions whose stack
	// matches a history signature, in percent (default 0, 50, 100 — the
	// matched-heavy end is where the shards matter).
	MatchPercents []int
	// OpsPerGoroutine is each goroutine's acquire/release count
	// (default 10000).
	OpsPerGoroutine int
}

// Runtime bench modes, in per-configuration run order.
const (
	RuntimeModeReference = "reference"
	RuntimeModeSharded   = "sharded"
)

var runtimeModes = []string{RuntimeModeReference, RuntimeModeSharded}

// RuntimeBenchPoint is one measurement.
type RuntimeBenchPoint struct {
	// Mode is the runtime configuration measured: "reference" or
	// "sharded" (see RuntimeBenchConfig).
	Mode string `json:"mode"`
	// FastPath reports whether the lock-free fast path was enabled
	// (every mode but "reference"); kept for continuity with the earliest
	// committed sweep format.
	FastPath bool `json:"fast_path"`
	// Goroutines is the worker count.
	Goroutines int `json:"goroutines"`
	// HistorySize is the number of installed signatures.
	HistorySize int `json:"history_size"`
	// MatchPercent is the fraction of acquisitions matching the history.
	MatchPercent int `json:"match_percent"`
	// Ops is the total acquire/release pair count.
	Ops int `json:"ops"`
	// ElapsedNS is the wall time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// OpsPerSec is the headline throughput (acquire/release pairs).
	OpsPerSec float64 `json:"ops_per_sec"`
	// Contended counts grants that queued (should stay 0: locks are
	// private per goroutine).
	Contended uint64 `json:"contended"`
	// Yields counts avoidance suspensions (should stay 0: the matched
	// signatures' other slots are never occupied).
	Yields uint64 `json:"yields"`
}

// runtimeBenchStack builds a depth-6 stack with a distinctive top frame.
func runtimeBenchStack(tag string, n int) sig.Stack {
	s := make(sig.Stack, 0, 6)
	for i := 0; i < 5; i++ {
		s = append(s, sig.Frame{Class: "bench/rt", Method: fmt.Sprintf("f%d", i), Line: 10 + i})
	}
	s = append(s, sig.Frame{Class: "bench/rt/" + tag, Method: "lock", Line: 100 + n})
	return s
}

// runtimeBenchHistory installs size signatures and returns each
// goroutine's matched stack. The first min(goroutines, size) signatures
// are "hot": goroutine w's matched acquisitions use hot signature
// w % nHot's slot-0 outer stack — distinct signatures (and so distinct
// position shards) per goroutine, the shape real applications have
// (distinct lock sites → distinct signatures). Slot-1 stacks are never
// executed, so matches register positions and evaluate threats but
// never yield. The rest are padding with distinct top frames.
func runtimeBenchHistory(size, goroutines int) (*dimmunix.History, []sig.Stack) {
	h := dimmunix.NewHistory()
	matched := make([]sig.Stack, goroutines)
	if size == 0 {
		for w := range matched {
			matched[w] = runtimeBenchStack("hot", 0)
		}
		return h, matched
	}
	mk := func(tag string, n int) *sig.Signature {
		outer := runtimeBenchStack(tag, n)
		inner := runtimeBenchStack(tag+"/inner", n)
		other := runtimeBenchStack(tag+"/other", n)
		otherInner := runtimeBenchStack(tag+"/otherInner", n)
		s := sig.New(
			sig.ThreadSpec{Outer: outer, Inner: inner},
			sig.ThreadSpec{Outer: other, Inner: otherInner},
		)
		s.Origin = sig.OriginRemote
		return s
	}
	nHot := goroutines
	if nHot > size {
		nHot = size
	}
	for i := 0; i < nHot; i++ {
		h.Add(mk("hot", i))
	}
	for i := nHot; i < size; i++ {
		h.Add(mk("pad", i))
	}
	for w := range matched {
		matched[w] = runtimeBenchStack("hot", w%nHot)
	}
	return h, matched
}

// RuntimeBench sweeps the acquisition hot path. Points come out ordered
// by (goroutines, history, match) with the two modes adjacent,
// reference first.
func RuntimeBench(cfg RuntimeBenchConfig) ([]RuntimeBenchPoint, error) {
	goroutines := cfg.Goroutines
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16, 32, 64}
	}
	histories := cfg.HistorySizes
	if len(histories) == 0 {
		histories = []int{0, 64, 512}
	}
	matches := cfg.MatchPercents
	if len(matches) == 0 {
		matches = []int{0, 50, 100}
	}
	ops := cfg.OpsPerGoroutine
	if ops <= 0 {
		ops = 10000
	}

	var out []RuntimeBenchPoint
	for _, g := range goroutines {
		for _, hist := range histories {
			for _, match := range matches {
				if match > 0 && hist == 0 {
					continue // nothing to match
				}
				for _, mode := range runtimeModes {
					p, err := runtimeBenchPoint(g, hist, match, ops, mode)
					if err != nil {
						return nil, err
					}
					out = append(out, p)
				}
			}
		}
	}
	return out, nil
}

// runtimeBenchPoint runs one configuration.
func runtimeBenchPoint(goroutines, histSize, matchPercent, ops int, mode string) (RuntimeBenchPoint, error) {
	history, matched := runtimeBenchHistory(histSize, goroutines)
	rtCfg := dimmunix.Config{
		History: history,
		Policy:  dimmunix.RecoverBreak,
	}
	switch mode {
	case RuntimeModeReference:
		rtCfg.FastPathDisabled = true
	case RuntimeModeSharded:
	default:
		return RuntimeBenchPoint{}, fmt.Errorf("bench: unknown runtime mode %q", mode)
	}
	rt := dimmunix.NewRuntime(rtCfg)
	defer rt.Close()

	locks := make([]*dimmunix.Lock, goroutines)
	plain := make([]sig.Stack, goroutines)
	for i := range locks {
		locks[i] = rt.NewLock(fmt.Sprintf("g%d", i))
		plain[i] = runtimeBenchStack("plain", i+1000)
	}
	// Warm up the position table: the first acquisition after a history
	// install refreshes it on the slow path; keep that out of the
	// measured window.
	warm := rt.NewLock("warm")
	if err := rt.Acquire(1, warm, matched[0]); err != nil {
		return RuntimeBenchPoint{}, fmt.Errorf("bench: warmup: %w", err)
	}
	if err := rt.Release(1, warm); err != nil {
		return RuntimeBenchPoint{}, fmt.Errorf("bench: warmup: %w", err)
	}

	errs := make(chan error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tid := dimmunix.ThreadID(1 + w)
			l := locks[w]
			state := uint64(w)*2654435761 + 12345
			for i := 0; i < ops; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				cs := plain[w]
				if matchPercent > 0 && int((state>>33)%100) < matchPercent {
					cs = matched[w]
				}
				if err := rt.Acquire(tid, l, cs); err != nil {
					errs <- fmt.Errorf("bench: acquire: %w", err)
					return
				}
				if err := rt.Release(tid, l); err != nil {
					errs <- fmt.Errorf("bench: release: %w", err)
					return
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(errs)
	if err := <-errs; err != nil {
		return RuntimeBenchPoint{}, err
	}

	stats := rt.Stats()
	total := goroutines * ops
	return RuntimeBenchPoint{
		Mode:         mode,
		FastPath:     mode != RuntimeModeReference,
		Goroutines:   goroutines,
		HistorySize:  histSize,
		MatchPercent: matchPercent,
		Ops:          total,
		ElapsedNS:    elapsed.Nanoseconds(),
		OpsPerSec:    float64(total) / elapsed.Seconds(),
		Contended:    stats.Contended,
		Yields:       stats.Yields,
	}, nil
}

// WriteRuntimeBench renders the sweep as text, pairing each
// configuration's two modes on one line with the sharded runtime's
// speedup over the reference.
func WriteRuntimeBench(w io.Writer, points []RuntimeBenchPoint) {
	fmt.Fprintln(w, "Acquisition hot path: sharded runtime vs global-mutex reference")
	fmt.Fprintln(w, "  goroutines  history  match%   reference ops/s     sharded ops/s   vs-ref")
	for i := 0; i+1 < len(points); i += 2 {
		ref, shard := points[i], points[i+1]
		if ref.Mode != RuntimeModeReference || shard.Mode != RuntimeModeSharded {
			continue
		}
		fmt.Fprintf(w, "  %10d %8d %6d%% %17.0f %17.0f %7.1fx\n",
			ref.Goroutines, ref.HistorySize, ref.MatchPercent,
			ref.OpsPerSec, shard.OpsPerSec, shard.OpsPerSec/ref.OpsPerSec)
	}
}

// WriteRuntimeBenchJSON writes the runtime sweeps as indented JSON (the
// committed BENCH_runtime.json format): the sharded mutex sweep, the
// history hot-swap comparison, and the channel fast-path differential.
func WriteRuntimeBenchJSON(w io.Writer, points []RuntimeBenchPoint, hotSwap []HotSwapBenchPoint, chanPoints []ChanBenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string              `json:"experiment"`
		Points     []RuntimeBenchPoint `json:"points"`
		HotSwap    []HotSwapBenchPoint `json:"hot_swap,omitempty"`
		Chan       []ChanBenchPoint    `json:"chan,omitempty"`
	}{Experiment: "runtime-sharded-sweep", Points: points, HotSwap: hotSwap, Chan: chanPoints})
}

// HotSwapBenchConfig parameterizes the history hot-swap experiment: G
// goroutines hammer matched acquisitions on private locks while each
// pre-holds K other matched locks (positions a full rebuild must
// re-derive on every refresh), and an agent goroutine swaps one
// signature in and out of the history at a paced rate — the §III-E
// steady state where the community pushes deltas into a long-running
// process. Each point reports how the runtime's refreshes resolved
// (per-signature delta, or the full-rebuild fallback) and what each
// cost.
type HotSwapBenchConfig struct {
	// Goroutines sweeps the worker count (default 4, 16).
	Goroutines []int
	// HistorySizes sweeps the installed-signature count excluding the
	// held and churn signatures (default 64, 512).
	HistorySizes []int
	// SwapRates sweeps the history mutation rate in swaps per second
	// (default 0, 200, 2000; 0 is the no-churn baseline).
	SwapRates []int
	// MatchPercents sweeps the fraction of worker acquisitions whose
	// stack matches a history signature (default 0, 100; the 0 points
	// prove the unmatched fast path never pays for churn).
	MatchPercents []int
	// HeldLocks is how many matched locks each worker pre-holds for the
	// whole run (default 16). Each held lock pins a position a full
	// rebuild re-registers on every swap; the delta path never touches
	// them.
	HeldLocks int
	// OpsPerGoroutine is each worker's acquire/release count
	// (default 20000).
	OpsPerGoroutine int
}

// HotSwapBenchPoint is one hot-swap measurement.
type HotSwapBenchPoint struct {
	// Goroutines is the worker count.
	Goroutines int `json:"goroutines"`
	// HistorySize is the number of installed signatures (excluding the
	// per-worker held signatures and the churn signature).
	HistorySize int `json:"history_size"`
	// MatchPercent is the fraction of acquisitions matching the history.
	MatchPercent int `json:"match_percent"`
	// SwapsPerSec is the paced history mutation rate (0 = no churn).
	SwapsPerSec int `json:"swaps_per_sec"`
	// HeldLocks is the matched locks each worker held throughout.
	HeldLocks int `json:"held_locks"`
	// Ops is the total measured acquire/release pair count.
	Ops int `json:"ops"`
	// ElapsedNS is the wall time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// OpsPerSec is the headline throughput (acquire/release pairs).
	OpsPerSec float64 `json:"ops_per_sec"`
	// SwapsApplied is how many history mutations the agent landed during
	// the measured window (catch-up paced, so it tracks
	// SwapsPerSec × elapsed even when the agent is descheduled).
	SwapsApplied uint64 `json:"swaps_applied"`
	// RefreshDelta and RefreshFull count how the runtime's lazy
	// refreshes resolved (incremental delta vs full rebuild). Bursty
	// swap application coalesces: one refresh can cover a multi-version
	// gap, so counts are at most — not equal to — SwapsApplied.
	RefreshDelta uint64 `json:"refresh_delta"`
	RefreshFull  uint64 `json:"refresh_full"`
	// RefreshDeltaNS and RefreshFullNS are the cumulative nanoseconds
	// spent inside each refresh variant — the direct measure of the
	// per-refresh cost the incremental path is meant to shrink. The
	// *MinNS pair is the fastest single refresh of each variant (0 =
	// none ran): on a loaded 1-CPU box a preemption landing inside a
	// timed window books milliseconds against a microsecond apply, so
	// the minimum — not the mean — is the uncontended per-refresh cost.
	RefreshDeltaNS    int64 `json:"refresh_delta_ns"`
	RefreshFullNS     int64 `json:"refresh_full_ns"`
	RefreshDeltaMinNS int64 `json:"refresh_delta_min_ns"`
	RefreshFullMinNS  int64 `json:"refresh_full_min_ns"`
	// Yields counts avoidance suspensions (should stay 0: no matched
	// signature's other slot is ever occupied).
	Yields uint64 `json:"yields"`
}

// HotSwapBench sweeps history churn against the acquisition hot path.
// Points come out ordered by (goroutines, history, match, rate).
func HotSwapBench(cfg HotSwapBenchConfig) ([]HotSwapBenchPoint, error) {
	goroutines := cfg.Goroutines
	if len(goroutines) == 0 {
		goroutines = []int{4, 16}
	}
	histories := cfg.HistorySizes
	if len(histories) == 0 {
		histories = []int{64, 512}
	}
	rates := cfg.SwapRates
	if len(rates) == 0 {
		rates = []int{0, 200, 2000}
	}
	matches := cfg.MatchPercents
	if len(matches) == 0 {
		matches = []int{0, 100}
	}
	held := cfg.HeldLocks
	if held <= 0 {
		held = 16
	}
	ops := cfg.OpsPerGoroutine
	if ops <= 0 {
		ops = 20000
	}

	var out []HotSwapBenchPoint
	for _, g := range goroutines {
		for _, hist := range histories {
			for _, match := range matches {
				for _, rate := range rates {
					p, err := hotSwapBenchPoint(g, hist, match, rate, held, ops)
					if err != nil {
						return nil, err
					}
					out = append(out, p)
				}
			}
		}
	}
	return out, nil
}

// hotSwapSig builds a two-thread signature whose slot-0 outer stack is
// returned alongside; the slot-1 stacks are never executed, so matched
// acquisitions register positions without ever yielding.
func hotSwapSig(tag string, n int) (*sig.Signature, sig.Stack) {
	outer := runtimeBenchStack(tag, n)
	s := sig.New(
		sig.ThreadSpec{Outer: outer, Inner: runtimeBenchStack(tag+"/inner", n)},
		sig.ThreadSpec{Outer: runtimeBenchStack(tag+"/other", n), Inner: runtimeBenchStack(tag+"/otherInner", n)},
	)
	s.Origin = sig.OriginRemote
	return s, outer
}

// hotSwapBenchPoint runs one configuration.
func hotSwapBenchPoint(goroutines, histSize, matchPercent, swapRate, held, ops int) (HotSwapBenchPoint, error) {
	history, matched := runtimeBenchHistory(histSize, goroutines)
	// Per-(worker, slot) held signatures: distinct top frames so each
	// pre-held lock pins a position in its own shard. A full rebuild
	// re-derives all goroutines*held of them per refresh; a delta
	// application touches none.
	heldStacks := make([][]sig.Stack, goroutines)
	for w := range heldStacks {
		heldStacks[w] = make([]sig.Stack, held)
		for k := 0; k < held; k++ {
			s, outer := hotSwapSig("held", 100000+w*held+k)
			history.Add(s)
			heldStacks[w][k] = outer
		}
	}
	churn, _ := hotSwapSig("churn", 900000)

	rt := dimmunix.NewRuntime(dimmunix.Config{
		History: history,
		Policy:  dimmunix.RecoverBreak,
	})
	defer rt.Close()

	locks := make([]*dimmunix.Lock, goroutines)
	plain := make([]sig.Stack, goroutines)
	for i := range locks {
		locks[i] = rt.NewLock(fmt.Sprintf("g%d", i))
		plain[i] = runtimeBenchStack("plain", i+1000)
	}
	// Pre-hold: worker w's thread keeps `held` matched locks for the
	// whole run.
	heldLocks := make([][]*dimmunix.Lock, goroutines)
	for w := range heldLocks {
		tid := dimmunix.ThreadID(1 + w)
		heldLocks[w] = make([]*dimmunix.Lock, held)
		for k := 0; k < held; k++ {
			l := rt.NewLock(fmt.Sprintf("h%d.%d", w, k))
			heldLocks[w][k] = l
			if err := rt.Acquire(tid, l, heldStacks[w][k]); err != nil {
				return HotSwapBenchPoint{}, fmt.Errorf("bench: pre-hold: %w", err)
			}
		}
	}
	// Warm up the position table so the first measured acquisition does
	// not pay the initial full attach, then zero the refresh counters:
	// the attach is setup — a rebuild of a not-yet-representative
	// runtime — and must not pollute the per-refresh costs.
	warm := rt.NewLock("warm")
	if err := rt.Acquire(dimmunix.ThreadID(goroutines+1), warm, matched[0]); err != nil {
		return HotSwapBenchPoint{}, fmt.Errorf("bench: warmup: %w", err)
	}
	if err := rt.Release(dimmunix.ThreadID(goroutines+1), warm); err != nil {
		return HotSwapBenchPoint{}, fmt.Errorf("bench: warmup: %w", err)
	}
	rt.ResetRefreshStats()

	// The swap agent alternately installs and removes the churn
	// signature at the paced rate — the common community update shape
	// ("+1 signature", later pruned). Pacing is catch-up style: when the
	// workers starve the agent off the CPU, it applies the overdue swaps
	// in a burst on its next run, so SwapsApplied honestly tracks the
	// configured rate (lazy refreshes then coalesce the burst into one
	// multi-version gap — exactly the shape DeltaSince has to fold).
	stop := make(chan struct{})
	var agentWG sync.WaitGroup
	var swaps atomic.Uint64
	if swapRate > 0 {
		agentWG.Add(1)
		go func() {
			defer agentWG.Done()
			interval := time.Second / time.Duration(swapRate)
			next := time.Now().Add(interval)
			installed := false
			swap := func() {
				if installed {
					history.Remove(churn.ID())
				} else {
					history.Add(churn)
				}
				installed = !installed
				swaps.Add(1)
			}
			for {
				for !time.Now().Before(next) {
					swap()
					next = next.Add(interval)
				}
				select {
				case <-stop:
					if installed {
						history.Remove(churn.ID())
					}
					return
				case <-time.After(time.Until(next)):
				}
			}
		}()
	}

	errs := make(chan error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tid := dimmunix.ThreadID(1 + w)
			l := locks[w]
			state := uint64(w)*2654435761 + 12345
			for i := 0; i < ops; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				cs := plain[w]
				if matchPercent > 0 && int((state>>33)%100) < matchPercent {
					cs = matched[w]
				}
				if err := rt.Acquire(tid, l, cs); err != nil {
					errs <- fmt.Errorf("bench: acquire: %w", err)
					return
				}
				if err := rt.Release(tid, l); err != nil {
					errs <- fmt.Errorf("bench: release: %w", err)
					return
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(stop)
	agentWG.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return HotSwapBenchPoint{}, err
	}

	for w := range heldLocks {
		tid := dimmunix.ThreadID(1 + w)
		for _, l := range heldLocks[w] {
			if err := rt.Release(tid, l); err != nil {
				return HotSwapBenchPoint{}, fmt.Errorf("bench: held release: %w", err)
			}
		}
	}

	stats := rt.Stats()
	delta, full := rt.RefreshCounts()
	deltaNS, fullNS := rt.RefreshNanos()
	deltaMinNS, fullMinNS := rt.RefreshMinNanos()
	total := goroutines * ops
	return HotSwapBenchPoint{
		Goroutines:        goroutines,
		HistorySize:       histSize,
		MatchPercent:      matchPercent,
		SwapsPerSec:       swapRate,
		HeldLocks:         held,
		Ops:               total,
		ElapsedNS:         elapsed.Nanoseconds(),
		OpsPerSec:         float64(total) / elapsed.Seconds(),
		SwapsApplied:      swaps.Load(),
		RefreshDelta:      delta,
		RefreshFull:       full,
		RefreshDeltaNS:    deltaNS,
		RefreshFullNS:     fullNS,
		RefreshDeltaMinNS: deltaMinNS,
		RefreshFullMinNS:  fullMinNS,
		Yields:            stats.Yields,
	}, nil
}

// AvgRefreshNS is the point's mean per-refresh cost across both refresh
// variants (0 when no refresh ran).
func (p HotSwapBenchPoint) AvgRefreshNS() float64 {
	n := p.RefreshDelta + p.RefreshFull
	if n == 0 {
		return 0
	}
	return float64(p.RefreshDeltaNS+p.RefreshFullNS) / float64(n)
}

// WriteHotSwapBench renders the hot-swap sweep as text, one line per
// configuration: throughput under churn, how the refreshes resolved
// (delta vs full-rebuild fallback), and each variant's fastest single
// refresh — the uncontended cost; cumulative means are in the JSON but
// are noisy on a loaded box, where a preemption inside a µs-scale timed
// window books milliseconds.
func WriteHotSwapBench(w io.Writer, points []HotSwapBenchPoint) {
	fmt.Fprintln(w, "History hot-swap: incremental delta refresh under churn")
	fmt.Fprintln(w, "  goroutines  history  match%  swaps/s  held           ops/s   deltas   fulls  delta-refresh µs  full-refresh µs")
	for _, p := range points {
		fmt.Fprintf(w, "  %10d %8d %6d%% %8d %5d %15.0f %8d %7d %17.1f %16.1f\n",
			p.Goroutines, p.HistorySize, p.MatchPercent, p.SwapsPerSec, p.HeldLocks, p.OpsPerSec,
			p.RefreshDelta, p.RefreshFull, float64(p.RefreshDeltaMinNS)/1e3, float64(p.RefreshFullMinNS)/1e3)
	}
}
