package bench

import (
	"strings"
	"testing"
	"time"
)

// End-to-end smoke for the replicated cell topology: subscribers read
// from live follower replicas, so every delivery crosses the
// replication hop, and the fleet must still quiesce with full fan-out
// and zero gaps — lost signatures during replication are hard errors.
func TestFleetReplicatedEndToEnd(t *testing.T) {
	trace, err := Synthesize(TraceConfig{
		Profile:   TraceProfileSteady,
		Slots:     4,
		SlotDur:   50 * time.Millisecond,
		TargetRPS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fleet(FleetConfig{
		Transport:   FleetTransportPipe,
		Subscribers: 8,
		Replicas:    2,
		Pushers:     1,
		Trace:       trace,
		TimeoutSec:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatal("replicated fleet did not quiesce")
	}
	if res.GapErrors != 0 {
		t.Errorf("gap errors = %d, want 0", res.GapErrors)
	}
	if res.Replicas != 2 {
		t.Errorf("result replicas = %d, want 2", res.Replicas)
	}
	if want := int64(res.TotalSigs) * 8; res.Deliveries != want {
		t.Errorf("deliveries = %d, want %d (full fan-out through replicas)", res.Deliveries, want)
	}
	if res.LatencySamples == 0 {
		t.Error("no latency samples recorded")
	}
}

// The repl surface runner must label the arms, track per-arm sustained
// maxima, and compute the capacity headline from them.
func TestReplSurfaceHeadline(t *testing.T) {
	traceCfg := TraceConfig{Profile: TraceProfileSteady, Slots: 2, SlotDur: 50 * time.Millisecond, TargetRPS: 60}
	res, err := ReplSurface(traceCfg,
		FleetConfig{Transport: FleetTransportPipe, TimeoutSec: 60},
		2,
		[]int{2},
		[]int{2, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(res.Cells))
	}
	if res.Cells[0].Replicas != 0 || res.Cells[1].Replicas != 2 || res.Cells[2].Replicas != 2 {
		t.Fatalf("arm labels wrong: %+v", res.Cells)
	}
	if res.Pushers != DefaultReplPushers {
		t.Errorf("pushers = %d, want default %d", res.Pushers, DefaultReplPushers)
	}
	for i, c := range res.Cells {
		if !c.Sustained {
			t.Fatalf("tiny cell %d not sustained: %+v", i, c)
		}
	}
	if res.SoloMaxSustained != 2 || res.ReplicatedMaxSustained != 4 {
		t.Errorf("max sustained = %d/%d, want 2/4", res.SoloMaxSustained, res.ReplicatedMaxSustained)
	}
	if res.CapacityRatio != 2 {
		t.Errorf("capacity ratio = %g, want 2", res.CapacityRatio)
	}
	var human writerCounter
	WriteReplSurface(&human, res)
	if human.n == 0 {
		t.Error("WriteReplSurface wrote nothing")
	}
	var buf strings.Builder
	if err := WriteReplSurfaceJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "repl"`, `"capacity_ratio": 2`, `"replicas"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, buf.String())
		}
	}
}
