package bench

import (
	"testing"
	"time"

	"communix/internal/wire"
)

func TestFleetBucketAndPercentile(t *testing.T) {
	// 1µs → bucket 1 ([1,2)µs), 1000µs = 1ms → bucket 10 ([512,1024)µs).
	if b := fleetBucket(int64(time.Microsecond)); b != 1 {
		t.Errorf("bucket(1µs) = %d, want 1", b)
	}
	if b := fleetBucket(int64(time.Millisecond)); b != 10 {
		t.Errorf("bucket(1ms) = %d, want 10", b)
	}
	if b := fleetBucket(0); b != 0 {
		t.Errorf("bucket(0) = %d, want 0", b)
	}
	if b := fleetBucket(1 << 62); b != fleetBuckets-1 {
		t.Errorf("bucket(huge) = %d, want cap %d", b, fleetBuckets-1)
	}

	var hist [fleetBuckets]int64
	hist[3] = 90 // ≤ 8µs
	hist[10] = 9 // ≤ 1.024ms
	hist[20] = 1 // ≤ ~1.05s
	if p := fleetPercentile(&hist, 100, 0.50); p != fleetBucketMS(3) {
		t.Errorf("p50 = %g, want %g", p, fleetBucketMS(3))
	}
	if p := fleetPercentile(&hist, 100, 0.95); p != fleetBucketMS(10) {
		t.Errorf("p95 = %g, want %g", p, fleetBucketMS(10))
	}
	if p := fleetPercentile(&hist, 100, 1.0); p != fleetBucketMS(20) {
		t.Errorf("p100 = %g, want %g", p, fleetBucketMS(20))
	}
	if p := fleetPercentile(&hist, 0, 0.99); p != 0 {
		t.Errorf("empty percentile = %g, want 0", p)
	}
}

// The contiguity checker is the lost-signature detector; exercise its
// three regimes directly: fresh extension, stale overlap, and a gap.
func TestFleetClientIngestContiguity(t *testing.T) {
	clock := &commitClock{times: make([]int64, 10)}
	for i := 1; i <= 10; i++ {
		clock.stamp(i)
	}
	frame := func(next, n int) fleetFrame {
		return fleetFrame{status: int(wire.StatusOK), push: true, next: next, nsigs: n}
	}

	fc := &fleetClient{done: make(chan struct{})}
	// Fresh pages extend the view and sample latency for each index.
	if !fc.ingest(frame(4, 3), clock) || fc.have.Load() != 3 {
		t.Fatalf("after [1,4): ok, have=%d, want 3", fc.have.Load())
	}
	// Overlapping page ([2,5)): only index 4 is fresh.
	if !fc.ingest(frame(5, 3), clock) || fc.have.Load() != 4 {
		t.Fatalf("after [2,5): have=%d, want 4", fc.have.Load())
	}
	// Fully stale page is a no-op.
	if !fc.ingest(frame(3, 2), clock) || fc.have.Load() != 4 {
		t.Fatalf("after stale [1,3): have=%d, want 4", fc.have.Load())
	}
	var samples int64
	for _, n := range fc.hist {
		samples += n
	}
	if samples != 4 {
		t.Errorf("latency samples = %d, want 4 (one per first-seen index)", samples)
	}
	// A frame starting past have+1 means signatures were lost.
	if fc.ingest(frame(9, 2), clock) || !fc.gap {
		t.Errorf("gap frame [7,9) with have=4 accepted: err=%v", fc.err)
	}
}

func TestCommitClockBounds(t *testing.T) {
	clock := &commitClock{times: make([]int64, 2)}
	clock.stamp(1)
	if clock.get(0) != 0 || clock.get(3) != 0 {
		t.Error("out-of-range indexes must read as unstamped")
	}
	if clock.get(1) == 0 {
		t.Error("stamped index reads as zero")
	}
	if clock.get(2) != 0 {
		t.Error("unstamped index reads as nonzero")
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	trace := []TraceSlot{{Dur: time.Millisecond, Adds: 1}}
	if _, err := Fleet(FleetConfig{Transport: "carrier-pigeon", Trace: trace}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := Fleet(FleetConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// End-to-end smoke: a small fleet must quiesce with every
// subscriber holding the full log, no gaps, and sane metrics. This is
// the same path the fleet benchmark and the CI smoke job run, shrunk.
func TestFleetSmallEndToEnd(t *testing.T) {
	trace, err := Synthesize(TraceConfig{
		Profile:          TraceProfileRamp,
		Slots:            4,
		SlotDur:          50 * time.Millisecond,
		BeginRPS:         40,
		TargetRPS:        120,
		ChurnEvery:       2,
		ChurnConnects:    5,
		ChurnDisconnects: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("pooled", func(t *testing.T) {
		res, err := Fleet(FleetConfig{
			Subscribers: 8,
			Trace:       trace,
			TimeoutSec:  60,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Quiesced {
			t.Fatal("fleet did not quiesce")
		}
		if res.GapErrors != 0 {
			t.Errorf("gap errors = %d, want 0", res.GapErrors)
		}
		if res.TotalSigs != TraceAdds(trace) {
			t.Errorf("total sigs = %d, want %d", res.TotalSigs, TraceAdds(trace))
		}
		if want := int64(res.TotalSigs) * 8; res.Deliveries != want {
			t.Errorf("deliveries = %d, want %d (full fan-out)", res.Deliveries, want)
		}
		if res.LatencySamples == 0 {
			t.Error("no latency samples recorded")
		}
		if res.LatencyP99MS <= 0 || res.LatencyP50MS > res.LatencyP99MS {
			t.Errorf("implausible percentiles p50=%g p99=%g", res.LatencyP50MS, res.LatencyP99MS)
		}
		if res.PusherWorkers >= 8 {
			t.Errorf("pooled pusher workers = %d, want a small pool", res.PusherWorkers)
		}
	})
}

// The surface runner must track the sustained maximum.
func TestFleetSurfaceHeadline(t *testing.T) {
	traceCfg := TraceConfig{Profile: TraceProfileSteady, Slots: 2, SlotDur: 50 * time.Millisecond, TargetRPS: 60}
	res, err := FleetSurface(traceCfg,
		FleetConfig{TimeoutSec: 60},
		[]int{2, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if !res.Cells[0].Sustained || !res.Cells[1].Sustained {
		t.Fatalf("tiny cells not sustained: %+v", res.Cells)
	}
	if res.MaxSustained != 4 {
		t.Errorf("max sustained = %d, want 4", res.MaxSustained)
	}
	var buf writerCounter
	WriteFleetSurface(&buf, res)
	if buf.n == 0 {
		t.Error("WriteFleetSurface wrote nothing")
	}
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
