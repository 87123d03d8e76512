// Command perfbench is the repository's benchmark: it runs the Communix
// system end to end on one workload, checks every output, and prints one
// JSON result line (the last line of standard output).
//
//	perfbench --workload app|ingest|protect --seed N --seconds S --trace 0|1
//
// Every run measures all three user-facing paths, so every run reports
// every end-to-end metric:
//
//   - app: the per-operation price a protected program pays (communix
//     Mutex pairs and Chan send/recv in an offline Node);
//   - ingest: the server's ADD write path over raw wire connections;
//   - protect: time-to-protection from a deadlock on node A, through a
//     quorum-acknowledged 3-member cell, to node B's validated history.
//
// Every run measures the phases in one fixed order, each for a third of
// the measured time, so an end-to-end metric is measured the same way
// whichever workload is run. The workload names the phase whose set-up
// is repeated for setup_s and whose live heap is heap_mb.
//
// With --trace 1 the run prints the per-layer metrics instead: each
// phase is run once untraced and once with spans timed around calls into
// the modules' public functions, and the blocking-path spans plus an
// explicit unattributed residual sum to the untraced median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// phaseConfig is what one phase of a run gets.
type phaseConfig struct {
	seed    int64
	dir     string        // private working directory
	measure time.Duration // measured time budget
	focus   bool          // the workload's phase: set-up is repeated for setup_s
	trace   bool
}

// phaseOut is what one phase reports.
type phaseOut struct {
	e2e       metrics // end-to-end metrics owned by the phase
	layers    metrics // per-layer metrics (traced runs)
	setup     samples // set-up times, seconds
	heapMB    float64 // live heap at the end of the measured phase
	attempted int64
	failed    int64
	report    []string // human-readable lines
}

func (o *phaseOut) logf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (o *phaseOut) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.logf("FAILED %d: %s", n, fmt.Sprintf(format, args...))
}

type phaseFunc func(phaseConfig) (*phaseOut, error)

var phases = map[string]phaseFunc{
	"app":     runApp,
	"ingest":  runIngest,
	"protect": runProtect,
}

// phaseOrder is the order every run measures the phases in. The app
// phase, which times microsecond-scale CPU work, runs last: over ten
// runs, an app phase that ran first in its process spread 2-3x wider
// than one that ran last (likely the kernel still retiring the previous
// run's data directories).
var phaseOrder = []string{"ingest", "protect", "app"}

// The focus phase repeats its set-up at least focusSetups times, and a
// cheap set-up until setupBudget is spent (at most maxSetups times):
// setup_s is the median, and a median of three 50 ms set-ups spread by
// a third from run to run.
const (
	focusSetups = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// setupAgain reports whether the phase times its set-up once more,
// given the set-up times (seconds) taken so far.
func (c phaseConfig) setupAgain(done samples) bool {
	switch {
	case !c.focus:
		return len(done) == 0
	case len(done) < focusSetups:
		return true
	case len(done) >= maxSetups:
		return false
	}
	total := 0.0
	for _, s := range done {
		total += s
	}
	return total < setupBudget.Seconds()
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "app, ingest or protect")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 18, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for run data")
	flag.Parse()
	if _, ok := phases[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want app, ingest or protect)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, report, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir)
	for _, line := range report {
		fmt.Println(line)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the three phases for one workload.
func run(focus string, seed int64, measure time.Duration, trace bool, workdir string) (result, []string, error) {
	var report []string
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)

	res := result{Metrics: metrics{}}
	layers := metrics{}
	for i, name := range phaseOrder {
		cfg := phaseConfig{
			seed:    seed*7919 + int64(i),
			dir:     fmt.Sprintf("%s/%s", dir, name),
			measure: measure / time.Duration(len(phaseOrder)),
			focus:   name == focus,
			trace:   trace,
		}
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return res, report, err
		}
		t0 := time.Now()
		out, err := phases[name](cfg)
		if err != nil {
			return res, report, fmt.Errorf("%s: %w", name, err)
		}
		for _, line := range out.report {
			report = append(report, name+": "+line)
		}
		report = append(report, fmt.Sprintf("%s: phase took %.1fs", name, since(t0)))
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Metrics.merge(out.e2e)
		layers.merge(out.layers)
		if name == focus {
			asc := out.setup.sorted()
			report = append(report, fmt.Sprintf("%s: setup_s is the median of %d set-ups (%.4fs to %.4fs)",
				name, len(asc), asc[0], asc[len(asc)-1]))
			res.Metrics.set("setup_s", median(out.setup), "s")
			res.Metrics.set("heap_mb", out.heapMB, "MiB")
		}
		if err := os.RemoveAll(cfg.dir); err != nil {
			return res, report, err
		}
		runtime.GC()
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if trace {
		res.Metrics = layers
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		report = append(report, fmt.Sprintf("%-34s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit))
	}
	return res, report, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// nanos converts a duration to float nanoseconds.
func nanos(d time.Duration) float64 { return float64(d) }
