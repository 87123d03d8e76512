// Command communix-bench regenerates every table and figure from the
// paper's evaluation (§IV).
//
// Usage:
//
//	communix-bench -experiment all            # everything, quick scale
//	communix-bench -experiment fig2 -full     # Figure 2 at paper scale
//	communix-bench -experiment table2         # Table II
//
// Experiments: fig2, fig3, fig4, table1, table2, protection, store,
// persist, runtime, e2e, all. -full runs paper-scale parameters (Figure
// 2 spawns up to 100,000 goroutines and Table I generates 600-kLOC-scale
// applications; expect minutes). The default quick scale preserves every
// qualitative shape.
//
// The store experiment sweeps contended ADD/GET throughput of the
// sharded store over worker counts; -store-json additionally
// writes the sweep as JSON (the committed BENCH_store.json). The persist
// experiment sweeps batched ingestion throughput into a durable store
// across the WAL fsync policies (plus the in-memory baseline);
// -persist-json writes the committed BENCH_persist.json. The runtime
// experiment sweeps the client-side acquisition hot path (goroutines ×
// history size × match rate) across two modes — all-slow reference and
// the sharded runtime — and then the history hot-swap surface
// (swaps/sec × goroutines × match rate, -swap-rates/-swap-held to
// scope) under the incremental delta refresh; -runtime-json writes the
// committed BENCH_runtime.json. The e2e
// experiment spawns -e2e-workers protected worker processes (this
// binary re-executed with -experiment e2e-worker) plus a local server
// and measures ingest throughput and time-to-protection end to end;
// -e2e-json writes the committed BENCH_e2e.json. The fleet experiment
// drives a trace-shaped upload load (steady/ramp/step RPS curves plus
// churn storms) against one server while a fleet of in-process
// subscriber clients measures the sessions × throughput ×
// distribution-latency surface of the pooled pusher; -fleet-json
// writes the committed BENCH_fleet.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"communix/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	experiment := flag.String("experiment", "all", "fig2|fig3|fig4|table1|table2|protection|store|persist|runtime|e2e|fleet|repl|all")
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	shards := flag.Int("shards", 0, "store experiment: sharded-store partitions (0 = default 16)")
	storeJSON := flag.String("store-json", "", "store experiment: also write results to this JSON file")
	persistJSON := flag.String("persist-json", "", "persist experiment: also write results to this JSON file")
	runtimeJSON := flag.String("runtime-json", "", "runtime experiment: also write results to this JSON file")
	runtimeGoroutines := flag.String("runtime-goroutines", "", "runtime: worker counts, comma-separated (default sweep)")
	runtimeOps := flag.Int("runtime-ops", 0, "runtime: acquire/release pairs per goroutine (0 = default)")
	swapRates := flag.String("swap-rates", "", "runtime: hot-swap rates in swaps/sec, comma-separated, 0 allowed (default \"0,200,2000\")")
	swapHeld := flag.Int("swap-held", 0, "runtime: matched locks pre-held per worker in the hot-swap sweep (0 = default 16)")
	e2eJSON := flag.String("e2e-json", "", "e2e experiment: also write results to this JSON file")
	e2eWorkers := flag.Int("e2e-workers", 0, "e2e experiment: protected worker processes (0 = default 4)")
	e2eSigs := flag.Int("e2e-sigs", 0, "e2e: deadlocks detected+uploaded per worker (0 = default 8)")
	e2eMode := flag.String("e2e-mode", "both", "e2e: distribution transport: push|poll|both")
	e2ePollMS := flag.Int("e2e-poll-ms", 0, "e2e: poll cadence in ms for the poll transport (0 = default 5000)")
	e2eAddr := flag.String("e2e-addr", "", "e2e-worker (internal): server address")
	e2eToken := flag.String("e2e-token", "", "e2e-worker (internal): encrypted user token")
	e2eWorkerID := flag.Int("e2e-worker-id", 0, "e2e-worker (internal): worker index")
	e2eTotal := flag.Int("e2e-total", 0, "e2e-worker (internal): community signature count to wait for")
	e2eTimeout := flag.Int("e2e-timeout", 0, "e2e: run deadline in seconds (0 = default)")
	chanJSON := flag.String("chan-json", "", "chan experiment: also write the time-to-protection result to this JSON file")
	fleetJSON := flag.String("fleet-json", "", "fleet experiment: also write results to this JSON file")
	fleetSubs := flag.String("fleet-subs", "", "fleet: subscriber counts, comma-separated (default quick \"50,200\")")
	fleetRPS := flag.Float64("fleet-rps", 0, "fleet: target upload RPS (0 = default 300)")
	fleetProfile := flag.String("fleet-profile", "steady", "fleet: load profile: steady|ramp|step")
	fleetSlots := flag.Int("fleet-slots", 0, "fleet: trace slots (0 = default 8)")
	fleetSlotMS := flag.Int("fleet-slot-ms", 0, "fleet: slot duration in ms (0 = default 500)")
	fleetChurnEvery := flag.Int("fleet-churn-every", 0, "fleet: churn storm every k-th slot (0 = no churn)")
	fleetChurnConns := flag.Int("fleet-churn-conns", 0, "fleet: subscribers connecting per storm")
	fleetChurnDrops := flag.Int("fleet-churn-drops", 0, "fleet: subscribers disconnecting per storm")
	fleetSLOMS := flag.Int("fleet-slo-ms", 0, "fleet: p99 distribution-latency budget in ms (0 = default 250)")
	fleetTimeout := flag.Int("fleet-timeout", 0, "fleet: per-cell deadline in seconds (0 = default 120)")
	fleetTransport := flag.String("fleet-transport", "tcp", "fleet: client transport: tcp|pipe (pipe = in-process, no fd limit)")
	fleetPacing := flag.String("fleet-pacing", "smooth", "fleet: upload pacing within a slot: smooth|burst")
	fleetBatch := flag.Int("fleet-batch", 0, "fleet: server page size (0 = server default)")
	fleetRepeat := flag.Int("fleet-repeat", 1, "fleet: best-of-N retries for cells that miss the SLO (correctness failures never retried)")
	fleetReplicas := flag.Int("fleet-replicas", 0, "fleet: follower replicas serving the subscribers (0 = all on the primary)")
	replJSON := flag.String("repl-json", "", "repl experiment: also write results to this JSON file")
	replReplicas := flag.Int("repl-replicas", 3, "repl: follower count in the replicated arm")
	replSoloSubs := flag.String("repl-solo-subs", "", "repl: solo-arm subscriber counts, comma-separated (default quick \"25,50\")")
	replSubs := flag.String("repl-subs", "", "repl: replicated-arm subscriber counts (default quick \"50,100\")")
	replPushers := flag.Int("repl-pushers", 0, "repl: fixed per-server pusher budget for both arms (0 = default 2)")
	uploadAddrs := flag.String("upload-addrs", "", "upload (CI chaos smoke): comma-separated cell member addresses")
	uploadToken := flag.String("upload-token", "", "upload: encrypted user token (server -mint output)")
	uploadN := flag.Int("upload-n", 0, "upload: distinct signatures to upload (0 = default 20)")
	uploadSeed := flag.Int("upload-seed", 0, "upload: deterministic signature stream seed (0 = default 1)")
	uploadTimeout := flag.Int("upload-timeout", 0, "upload: deadline in seconds, retries included (0 = default 60)")
	flag.Parse()

	// Upload mode: this process is the chaos smoke's write load; it
	// retries every upload until a cell member acknowledges it and exits
	// nonzero if any upload never lands.
	if *experiment == "upload" {
		var addrs []string
		for _, a := range strings.Split(*uploadAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		_, err := bench.UploadBurst(bench.UploadBurstConfig{
			Addrs:      addrs,
			Token:      *uploadToken,
			N:          *uploadN,
			Seed:       *uploadSeed,
			TimeoutSec: *uploadTimeout,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-bench: upload: %v\n", err)
			return 1
		}
		return 0
	}

	// Worker mode: this process IS one protected application of the e2e
	// experiment; it prints one JSON result line and exits.
	if *experiment == "e2e-worker" {
		err := bench.E2EWorker(bench.E2EWorkerConfig{
			Addr:       *e2eAddr,
			Token:      *e2eToken,
			WorkerID:   *e2eWorkerID,
			Sigs:       *e2eSigs,
			TotalSigs:  *e2eTotal,
			TimeoutSec: *e2eTimeout,
			Mode:       *e2eMode,
			PollMS:     *e2ePollMS,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-bench: e2e-worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Chan worker mode: this process is the fresh protected application
	// of the channel time-to-protection experiment.
	if *experiment == "chan-worker" {
		err := bench.ChanE2EWorker(bench.ChanE2EWorkerConfig{
			Addr:       *e2eAddr,
			Token:      *e2eToken,
			TotalSigs:  *e2eTotal,
			TimeoutSec: *e2eTimeout,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-bench: chan-worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Quick-scale divisors chosen so each experiment finishes in seconds
	// while keeping every curve's shape.
	fig2Scale, fig3Scale, fig4Scale, table1Scale := 20, 4, 10, 4
	if *full {
		fig2Scale, fig3Scale, fig4Scale, table1Scale = 1, 1, 1, 1
	}

	out := os.Stdout
	ran := false
	fail := func(name string, err error) int {
		fmt.Fprintf(os.Stderr, "communix-bench: %s: %v\n", name, err)
		return 1
	}
	// writeJSON persists one experiment's results ("" path = skip).
	writeJSON := func(path string, write func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}

	if *experiment == "fig2" || *experiment == "all" {
		ran = true
		points, err := bench.Fig2(bench.Fig2Config{Scale: fig2Scale})
		if err != nil {
			return fail("fig2", err)
		}
		bench.WriteFig2(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "fig3" || *experiment == "all" {
		ran = true
		points, err := bench.Fig3(bench.Fig3Config{Scale: fig3Scale})
		if err != nil {
			return fail("fig3", err)
		}
		bench.WriteFig3(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "fig4" || *experiment == "all" {
		ran = true
		points, err := bench.Fig4(bench.Fig4Config{Scale: fig4Scale})
		if err != nil {
			return fail("fig4", err)
		}
		bench.WriteFig4(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "table1" || *experiment == "all" {
		ran = true
		rows, err := bench.Table1(bench.Table1Config{Scale: table1Scale})
		if err != nil {
			return fail("table1", err)
		}
		bench.WriteTable1(out, rows)
		fmt.Fprintln(out)
	}
	if *experiment == "table2" || *experiment == "all" {
		ran = true
		rows, err := bench.Table2(bench.Table2Config{})
		if err != nil {
			return fail("table2", err)
		}
		bench.WriteTable2(out, rows)
		fmt.Fprintln(out)
	}
	if *experiment == "protection" || *experiment == "all" {
		ran = true
		bench.WriteProtection(out, bench.Protection(bench.ProtectionConfig{}))
		fmt.Fprintln(out)
	}
	if *experiment == "store" || *experiment == "all" {
		ran = true
		cfg := bench.StoreBenchConfig{Shards: *shards}
		if *full {
			cfg.OpsPerWorker = 20000
		}
		points, err := bench.StoreBench(cfg)
		if err != nil {
			return fail("store", err)
		}
		bench.WriteStoreBench(out, points)
		fmt.Fprintln(out)
		if err := writeJSON(*storeJSON, func(w io.Writer) error {
			return bench.WriteStoreBenchJSON(w, points)
		}); err != nil {
			return fail("store", err)
		}
	}
	if *experiment == "persist" || *experiment == "all" {
		ran = true
		cfg := bench.PersistBenchConfig{}
		if *full {
			cfg.AddsPerWorker = 10000
		}
		points, err := bench.PersistBench(cfg)
		if err != nil {
			return fail("persist", err)
		}
		bench.WritePersistBench(out, points)
		fmt.Fprintln(out)
		if err := writeJSON(*persistJSON, func(w io.Writer) error {
			return bench.WritePersistBenchJSON(w, points)
		}); err != nil {
			return fail("persist", err)
		}
	}
	if *experiment == "runtime" || *experiment == "all" {
		ran = true
		workers, err := parseCounts(*runtimeGoroutines, nil)
		if err != nil {
			return fail("runtime", err)
		}
		rates, err := parseRates(*swapRates, nil)
		if err != nil {
			return fail("runtime", err)
		}
		cfg := bench.RuntimeBenchConfig{
			Goroutines:      workers,
			OpsPerGoroutine: *runtimeOps,
		}
		if *full && cfg.OpsPerGoroutine == 0 {
			cfg.OpsPerGoroutine = 50000
		}
		points, err := bench.RuntimeBench(cfg)
		if err != nil {
			return fail("runtime", err)
		}
		bench.WriteRuntimeBench(out, points)
		fmt.Fprintln(out)
		hsCfg := bench.HotSwapBenchConfig{
			Goroutines:      workers,
			SwapRates:       rates,
			HeldLocks:       *swapHeld,
			OpsPerGoroutine: *runtimeOps,
		}
		if *full && hsCfg.OpsPerGoroutine == 0 {
			hsCfg.OpsPerGoroutine = 50000
		}
		hotSwap, err := bench.HotSwapBench(hsCfg)
		if err != nil {
			return fail("runtime", err)
		}
		bench.WriteHotSwapBench(out, hotSwap)
		fmt.Fprintln(out)
		chanCfg := bench.ChanBenchConfig{OpsPerGoroutine: *runtimeOps}
		if *full && chanCfg.OpsPerGoroutine == 0 {
			chanCfg.OpsPerGoroutine = 50000
		}
		chanPoints, err := bench.ChanBench(chanCfg)
		if err != nil {
			return fail("runtime", err)
		}
		bench.WriteChanBench(out, chanPoints)
		fmt.Fprintln(out)
		if err := writeJSON(*runtimeJSON, func(w io.Writer) error {
			return bench.WriteRuntimeBenchJSON(w, points, hotSwap, chanPoints)
		}); err != nil {
			return fail("runtime", err)
		}
	}
	if *experiment == "e2e" || *experiment == "all" {
		ran = true
		cfg := bench.E2EBenchConfig{
			Workers:       *e2eWorkers,
			SigsPerWorker: *e2eSigs,
			TimeoutSec:    *e2eTimeout,
			PollInterval:  time.Duration(*e2ePollMS) * time.Millisecond,
		}
		if *full {
			if cfg.Workers == 0 {
				cfg.Workers = 8
			}
			if cfg.SigsPerWorker == 0 {
				cfg.SigsPerWorker = 16
			}
		}
		switch *e2eMode {
		case "both":
			cmp, err := bench.E2ECompare(cfg)
			if err != nil {
				return fail("e2e", err)
			}
			bench.WriteE2ECompare(out, cmp)
			fmt.Fprintln(out)
			if err := writeJSON(*e2eJSON, func(w io.Writer) error {
				return bench.WriteE2ECompareJSON(w, cmp)
			}); err != nil {
				return fail("e2e", err)
			}
		default:
			cfg.Mode = *e2eMode
			res, err := bench.E2EBench(cfg)
			if err != nil {
				return fail("e2e", err)
			}
			bench.WriteE2EBench(out, res)
			fmt.Fprintln(out)
			if err := writeJSON(*e2eJSON, func(w io.Writer) error {
				return bench.WriteE2EBenchJSON(w, res)
			}); err != nil {
				return fail("e2e", err)
			}
		}
	}
	if *experiment == "chan" || *experiment == "all" {
		ran = true
		res, err := bench.ChanE2E(bench.ChanE2EConfig{TimeoutSec: *e2eTimeout})
		if err != nil {
			return fail("chan", err)
		}
		bench.WriteChanE2E(out, res)
		fmt.Fprintln(out)
		if err := writeJSON(*chanJSON, func(w io.Writer) error {
			return bench.WriteChanE2EJSON(w, res)
		}); err != nil {
			return fail("chan", err)
		}
	}
	// The repl experiment reuses the fleet trace and cell flags: same
	// loader, same SLO semantics, different topology axis.
	fleetTraceCfg := func() bench.TraceConfig {
		tc := bench.TraceConfig{
			Profile:          *fleetProfile,
			Slots:            *fleetSlots,
			SlotDur:          time.Duration(*fleetSlotMS) * time.Millisecond,
			TargetRPS:        *fleetRPS,
			ChurnEvery:       *fleetChurnEvery,
			ChurnConnects:    *fleetChurnConns,
			ChurnDisconnects: *fleetChurnDrops,
		}
		if tc.TargetRPS <= 0 {
			tc.TargetRPS = 300
		}
		if tc.Profile == bench.TraceProfileRamp || tc.Profile == bench.TraceProfileStep {
			if tc.BeginRPS == 0 {
				tc.BeginRPS = tc.TargetRPS / 4
			}
		}
		return tc
	}
	if *experiment == "fleet" || *experiment == "all" {
		ran = true
		traceCfg := fleetTraceCfg()
		counts, err := parseCounts(*fleetSubs, []int{50, 200})
		if err != nil {
			return fail("fleet", err)
		}
		surface, err := bench.FleetSurface(traceCfg, bench.FleetConfig{
			Transport:  *fleetTransport,
			Pacing:     *fleetPacing,
			GetBatch:   *fleetBatch,
			SLO:        time.Duration(*fleetSLOMS) * time.Millisecond,
			TimeoutSec: *fleetTimeout,
			Repeat:     *fleetRepeat,
			Replicas:   *fleetReplicas,
		}, counts)
		if err != nil {
			return fail("fleet", err)
		}
		bench.WriteFleetSurface(out, surface)
		fmt.Fprintln(out)
		if err := writeJSON(*fleetJSON, func(w io.Writer) error {
			return bench.WriteFleetSurfaceJSON(w, surface)
		}); err != nil {
			return fail("fleet", err)
		}
		// A degraded cell (SLO miss) is a data point; lost signatures or
		// a fleet that never converged is a failed experiment.
		for _, c := range surface.Cells {
			if c.GapErrors > 0 || !c.Quiesced {
				return fail("fleet", fmt.Errorf("%d subscribers: gaps=%d quiesced=%v", c.Subscribers, c.GapErrors, c.Quiesced))
			}
		}
	}
	if *experiment == "repl" || *experiment == "all" {
		ran = true
		soloCounts, err := parseCounts(*replSoloSubs, []int{25, 50})
		if err != nil {
			return fail("repl", err)
		}
		replCounts, err := parseCounts(*replSubs, []int{50, 100})
		if err != nil {
			return fail("repl", err)
		}
		surface, err := bench.ReplSurface(fleetTraceCfg(), bench.FleetConfig{
			Transport:  *fleetTransport,
			Pacing:     *fleetPacing,
			GetBatch:   *fleetBatch,
			SLO:        time.Duration(*fleetSLOMS) * time.Millisecond,
			TimeoutSec: *fleetTimeout,
			Repeat:     *fleetRepeat,
			Pushers:    *replPushers,
		}, *replReplicas, soloCounts, replCounts)
		if err != nil {
			return fail("repl", err)
		}
		bench.WriteReplSurface(out, surface)
		fmt.Fprintln(out)
		if err := writeJSON(*replJSON, func(w io.Writer) error {
			return bench.WriteReplSurfaceJSON(w, surface)
		}); err != nil {
			return fail("repl", err)
		}
		for _, c := range surface.Cells {
			if c.GapErrors > 0 || !c.Quiesced {
				return fail("repl", fmt.Errorf("replicas=%d/%d: gaps=%d quiesced=%v", c.Replicas, c.Subscribers, c.GapErrors, c.Quiesced))
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "communix-bench: unknown experiment %q\n", *experiment)
		return 2
	}
	return 0
}

// parseRates parses a comma-separated list of non-negative rates (0 is
// a valid "no churn" point), falling back to def when the flag is unset.
func parseRates(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad swap rate %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseCounts parses a comma-separated list of positive subscriber
// counts, falling back to def when the flag is unset.
func parseCounts(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad subscriber count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
