package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/store"
)

// StoreBenchConfig parameterizes the contended ADD/GET throughput
// experiment: W workers hammer one sharded store with distinct-signature
// ADDs, interleaving incremental GETs.
type StoreBenchConfig struct {
	// Workers are the contention levels to sweep; default 1,2,4,8,16.
	Workers []int
	// OpsPerWorker is each worker's ADD count (default 2000).
	OpsPerWorker int
	// Shards configures the sharded store (default store.DefaultShards).
	Shards int
	// GetEvery interleaves one incremental GET per this many ADDs
	// (default 8).
	GetEvery int
}

// StoreBenchPoint is one measurement.
type StoreBenchPoint struct {
	// Workers is the number of concurrent goroutines.
	Workers int `json:"workers"`
	// Shards is the partition count.
	Shards int `json:"shards"`
	// Procs is the GOMAXPROCS the point ran under.
	Procs int `json:"procs"`
	// Ops is the total operation count (ADDs + GETs).
	Ops int `json:"ops"`
	// ElapsedNS is the wall time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// OpsPerSec is the headline throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// StoreBench sweeps worker counts over the sharded store. For each level
// it sets GOMAXPROCS to the worker count, deliberately uncapped as in
// the committed BENCH_store.json sweep: past NumCPU the extra threads
// oversubscribe the cores.
func StoreBench(cfg StoreBenchConfig) ([]StoreBenchPoint, error) {
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8, 16}
	}
	ops := cfg.OpsPerWorker
	if ops <= 0 {
		ops = 2000
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = store.DefaultShards
	}
	getEvery := cfg.GetEvery
	if getEvery <= 0 {
		getEvery = 8
	}

	maxWorkers := 0
	for _, w := range workers {
		if w > maxWorkers {
			maxWorkers = w
		}
	}
	// Pre-build distinct signatures so only store operations are timed.
	// Worker w uploads sigs[w*ops : (w+1)*ops] as user w+1; benchSignature
	// tops are globally unique, so no adjacency rejections interfere.
	sigs := make([]*sig.Signature, maxWorkers*ops)
	for i := range sigs {
		sigs[i] = benchSignature(i)
	}

	var out []StoreBenchPoint
	for _, w := range workers {
		prev := runtime.GOMAXPROCS(w)
		db := store.New(store.Config{MaxPerDay: 1 << 30, Shards: shards})
		elapsed, total := storeBenchRun(db, sigs, w, ops, getEvery)
		runtime.GOMAXPROCS(prev)
		out = append(out, StoreBenchPoint{
			Workers:   w,
			Shards:    shards,
			Procs:     w,
			Ops:       total,
			ElapsedNS: elapsed.Nanoseconds(),
			OpsPerSec: float64(total) / elapsed.Seconds(),
		})
	}
	return out, nil
}

// storeBenchRun times w workers × ops ADDs (plus interleaved incremental
// GETs) against db and returns wall time and total operations.
func storeBenchRun(db *store.Store, sigs []*sig.Signature, w, ops, getEvery int) (time.Duration, int) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			next := 1
			for k := 0; k < ops; k++ {
				_, _ = db.Add(ids.UserID(i+1), sigs[i*ops+k])
				if k%getEvery == getEvery-1 {
					_, next = db.Get(next)
				}
			}
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	total := w*ops + w*(ops/getEvery)
	return elapsed, total
}

// WriteStoreBench renders the sweep as text.
func WriteStoreBench(w io.Writer, points []StoreBenchPoint) {
	fmt.Fprintln(w, "Store throughput: contended ADD/GET, sharded store")
	fmt.Fprintln(w, "  workers  shards  procs       ops   elapsed        ops/s")
	for _, p := range points {
		fmt.Fprintf(w, "  %7d %7d %6d %9d   %-10v %9.0f\n",
			p.Workers, p.Shards, p.Procs, p.Ops,
			time.Duration(p.ElapsedNS).Round(time.Millisecond), p.OpsPerSec)
	}
}

// WriteStoreBenchJSON writes the sweep as indented JSON (the committed
// BENCH_store.json format).
func WriteStoreBenchJSON(w io.Writer, points []StoreBenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string            `json:"experiment"`
		NumCPU     int               `json:"num_cpu"`
		Points     []StoreBenchPoint `json:"points"`
	}{Experiment: "store-contended-add-get", NumCPU: runtime.NumCPU(), Points: points})
}
