package bench

import (
	"bytes"
	"strings"
	"testing"

	"communix/internal/bytecode"
	"communix/internal/workload"
)

func TestFig2SmallSweep(t *testing.T) {
	points, err := Fig2(Fig2Config{ThreadCounts: []int{50, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.ReqPerSec <= 0 || p.Requests != 2*p.Threads {
			t.Errorf("point %+v", p)
		}
	}
	var buf bytes.Buffer
	WriteFig2(&buf, points)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("renderer output missing header")
	}
}

func TestFig3SmallSweep(t *testing.T) {
	points, err := Fig3(Fig3Config{ClientCounts: []int{2, 4}, SeqPerClient: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.PerClientReqPerSec <= 0 || p.BytesReturned <= 0 {
			t.Errorf("point %+v", p)
		}
	}
	// GET(0) reply volume grows superlinearly with clients — the paper's
	// bottleneck.
	if points[1].BytesReturned <= points[0].BytesReturned {
		t.Error("GET byte volume should grow with client count")
	}
	var buf bytes.Buffer
	WriteFig3(&buf, points)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("renderer output missing header")
	}
}

func TestFig4SmallSweep(t *testing.T) {
	points, err := Fig4(Fig4Config{
		SigCounts: []int{5, 50}, Scale: 100, BaseWorkPerKLOC: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps × 2 counts × 4 modes.
	if len(points) != 24 {
		t.Fatalf("points = %d, want 24", len(points))
	}
	byKey := map[string]Fig4Point{}
	for _, p := range points {
		byKey[p.App+"/"+p.Mode.String()+"/"+itoa(p.NewSigs)] = p
	}
	for _, app := range []string{"jboss", "limewire", "vuze"} {
		vanilla := byKey[app+"/Vanilla/50"]
		agent := byKey[app+"/Communix agent/50"]
		if agent.Elapsed <= vanilla.Elapsed {
			t.Errorf("%s: agent (%v) should exceed vanilla (%v)", app, agent.Elapsed, vanilla.Elapsed)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, points)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("renderer output missing header")
	}
}

func itoa(n int) string {
	if n == 5 {
		return "5"
	}
	return "50"
}

func TestTable1ScaledDown(t *testing.T) {
	rows, err := Table1(Table1Config{Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.NestingCheck <= 0 || r.SyncSites == 0 || r.Analyzed == 0 {
			t.Errorf("row %+v", r)
		}
		if r.Analyzed > r.SyncSites || r.Nested > r.Analyzed {
			t.Errorf("row %+v violates invariants", r)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("renderer output missing header")
	}
}

func TestTable2ScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II workload in -short mode")
	}
	rows, err := Table2(Table2Config{Scale: 40, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	totalYields := uint64(0)
	for _, r := range rows {
		if r.Baseline <= 0 {
			t.Errorf("row %+v: no baseline", r)
		}
		totalYields += r.Yields
	}
	// At this reduced scale some apps have too few covered sites for
	// reliable per-row yields; across all five workloads the attack must
	// still engage avoidance somewhere. (Per-row yields are exercised at
	// default scale by the communix-bench tool and the root benchmarks.)
	if totalYields == 0 {
		t.Error("critical-path attack caused no yields in any workload")
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("renderer output missing header")
	}
}

func TestProtectionSweep(t *testing.T) {
	rows := Protection(ProtectionConfig{UserCounts: []int{1, 10}, Trials: 50})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].CommunixDays >= rows[0].CommunixDays {
		t.Error("more users must shorten protection time")
	}
	var buf bytes.Buffer
	WriteProtection(&buf, rows)
	if !strings.Contains(buf.String(), "IV-C") {
		t.Error("renderer output missing header")
	}
}

func TestBenchSignaturesAreDistinctAndValid(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		s := benchSignature(i)
		if err := s.Valid(); err != nil {
			t.Fatalf("signature %d invalid: %v", i, err)
		}
		id := s.ID()
		if seen[id] {
			t.Fatalf("signature %d duplicates an earlier one", i)
		}
		seen[id] = true
	}
}

func TestMaliciousHistoriesDiffer(t *testing.T) {
	// Guard against the Table II cells accidentally sharing histories.
	// Scale 10 keeps enough hot nested sites that the critical-path pool
	// does not fall back to cold sites.
	app, err := bytecode.Generate(table2Benches()[0].profile.ScaledDown(10))
	if err != nil {
		t.Fatal(err)
	}
	crit := workload.MaliciousSignatures(app, 5, workload.AttackCriticalPath, 1)
	off := workload.MaliciousSignatures(app, 5, workload.AttackOffPath, 2)
	if len(crit) == 0 || len(off) == 0 {
		t.Fatal("factories returned nothing")
	}
	critTops := map[string]bool{}
	for _, s := range crit {
		for k := range s.TopFrames() {
			critTops[k] = true
		}
	}
	for _, s := range off {
		for k := range s.TopFrames() {
			if critTops[k] {
				t.Fatalf("off-path signature shares site %s with critical-path set", k)
			}
		}
	}
}

func TestRuntimeBenchSmallSweep(t *testing.T) {
	points, err := RuntimeBench(RuntimeBenchConfig{
		Goroutines:      []int{1, 2},
		HistorySizes:    []int{0, 8},
		MatchPercents:   []int{0, 50},
		OpsPerGoroutine: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// (g × hist × match) minus the skipped hist=0/match>0 combos, ×2 modes.
	if want := 2 * 3 * 2; len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	for i, p := range points {
		if p.OpsPerSec <= 0 || p.Ops != p.Goroutines*200 {
			t.Errorf("bad point %+v", p)
		}
		if p.Yields != 0 {
			t.Errorf("point %+v yielded; the sweep workload must never yield", p)
		}
		if p.Contended != 0 {
			t.Errorf("point %+v contended; locks are private per goroutine", p)
		}
		if want := runtimeModes[i%2]; p.Mode != want {
			t.Errorf("point %d mode = %q, want %q", i, p.Mode, want)
		}
		if p.FastPath != (p.Mode != RuntimeModeReference) {
			t.Errorf("point %+v: FastPath inconsistent with Mode", p)
		}
	}
	var buf bytes.Buffer
	WriteRuntimeBench(&buf, points)
	if !strings.Contains(buf.String(), "sharded runtime vs global-mutex reference") {
		t.Error("renderer output missing header")
	}
	buf.Reset()
	if err := WriteRuntimeBenchJSON(&buf, points, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"runtime-sharded-sweep"`) {
		t.Error("JSON output missing experiment tag")
	}
}

func TestHotSwapBenchSmallSweep(t *testing.T) {
	points, err := HotSwapBench(HotSwapBenchConfig{
		Goroutines:      []int{2},
		HistorySizes:    []int{8},
		SwapRates:       []int{0, 500},
		MatchPercents:   []int{0, 100},
		HeldLocks:       2,
		OpsPerGoroutine: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// g × hist × match × rate.
	if want := 1 * 1 * 2 * 2; len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	for _, p := range points {
		if p.OpsPerSec <= 0 || p.Ops != p.Goroutines*300 {
			t.Errorf("bad point %+v", p)
		}
		if p.Yields != 0 {
			t.Errorf("point %+v yielded; the sweep workload must never yield", p)
		}
		// The refresh must never fall back mid-churn: the ring covers a
		// single alternating signature with room to spare.
		if p.SwapsPerSec > 0 && p.MatchPercent > 0 && p.RefreshFull > 0 {
			t.Errorf("incremental refresh fell back to %d full rebuilds: %+v", p.RefreshFull, p)
		}
	}
	var buf bytes.Buffer
	WriteHotSwapBench(&buf, points)
	if !strings.Contains(buf.String(), "incremental delta refresh under churn") {
		t.Error("renderer output missing header")
	}
	buf.Reset()
	if err := WriteRuntimeBenchJSON(&buf, nil, points, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hot_swap"`) {
		t.Error("JSON output missing hot_swap section")
	}
}

// BenchmarkHotSwapRefresh is the CI bench-rot smoke hook for the
// hot-swap sweep: one churn-heavy configuration, so a regression that
// breaks the refresh path fails the smoke run.
func BenchmarkHotSwapRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := hotSwapBenchPoint(4, 32, 100, 1000, 4, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if p.OpsPerSec <= 0 {
			b.Fatalf("bad point %+v", p)
		}
	}
}

func TestRuntimeBenchFastBeatsReferenceUncontended(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing comparison")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// Not a strict benchmark — just the qualitative shape on a
	// long-enough run: the lock-free path should never lose to the
	// global mutex on unmatched acquisitions.
	points, err := RuntimeBench(RuntimeBenchConfig{
		Goroutines:      []int{4},
		HistorySizes:    []int{16},
		MatchPercents:   []int{0},
		OpsPerGoroutine: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	ref, fast := points[0], points[1]
	if ref.Mode != RuntimeModeReference || fast.Mode != RuntimeModeSharded {
		t.Fatalf("unexpected point order: %+v, %+v", ref, fast)
	}
	if fast.OpsPerSec <= ref.OpsPerSec {
		t.Errorf("fast path (%.0f ops/s) did not beat the reference (%.0f ops/s)",
			fast.OpsPerSec, ref.OpsPerSec)
	}
}
