// Replication capacity experiment: how many subscribers can one
// deployment sustain within the distribution-latency SLO when follower
// replicas carry the fan-out (BENCH_repl.json)?
//
// Both arms run the pooled pusher architecture with the same small,
// fixed per-server pusher budget — the knob under test is topology, not
// goroutine count. The solo arm puts every subscriber on the primary.
// The replicated arm runs N followers replicating over the same
// transport and round-robins the subscribers (and churn) across them;
// the primary keeps the upload path and ships each committed page once
// per follower instead of once per subscriber. Latency stays
// commit-to-delivery, so the replication hop is inside the measured
// budget — a slow replica shows up as an SLO miss, not a footnote.
//
// The headline, CapacityRatio, is the largest sustained subscriber
// population with replicas over the largest without. On a single box
// the arms share CPU, so the ratio understates what separate machines
// would show: the replicated arm pays for primary, followers, loader,
// and every subscriber reader on the same cores.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// DefaultReplPushers is the fixed per-server pusher budget both arms
// run under. Deliberately small: the experiment measures what adding
// servers buys at constant per-server resources, so the per-server
// budget must be the binding constraint.
const DefaultReplPushers = 2

// ReplSurfaceResult is the replication capacity experiment: solo cells,
// replicated cells, and the capacity headline.
type ReplSurfaceResult struct {
	Trace TraceConfig `json:"trace"`
	// Repeat is the best-of-N retry budget each cell ran under.
	Repeat int `json:"repeat"`
	// Replicas is the follower count in the replicated arm.
	Replicas int `json:"replicas"`
	// Pushers is the fixed per-server pusher budget both arms share.
	Pushers int `json:"pushers"`
	// Cells holds every measured cell; Replicas==0 rows are the solo
	// arm, Replicas>0 rows the replicated arm.
	Cells []FleetCellResult `json:"cells"`
	// SoloMaxSustained / ReplicatedMaxSustained are the largest
	// subscriber populations each arm sustained within the SLO.
	SoloMaxSustained       int `json:"solo_max_sustained"`
	ReplicatedMaxSustained int `json:"replicated_max_sustained"`
	// CapacityRatio is replicated over solo — the scaling headline.
	CapacityRatio float64 `json:"capacity_ratio"`
	// AckLatency compares the upload acknowledgement contracts (async
	// vs quorum) on identical 3-node cells; QuorumOverheadP50MS is the
	// headline difference (what majority durability costs per ADD).
	AckLatency          []AckLatencyCell `json:"ack_latency,omitempty"`
	QuorumOverheadP50MS float64          `json:"quorum_overhead_p50_ms"`
	// Failover is the automatic-failover arm: kill the quorum cell's
	// primary mid-burst, measure detection+election+recovery, and audit
	// that every acknowledged upload survived exactly once.
	Failover *FailoverResult `json:"failover,omitempty"`
}

// ReplSurface runs the two arms cell by cell (sequentially — they share
// the box) and computes the capacity headline. base.Pushers and
// base.Replicas are overridden per arm.
func ReplSurface(traceCfg TraceConfig, base FleetConfig, replicas int, soloCounts, replCounts []int) (ReplSurfaceResult, error) {
	repeat := base.Repeat
	if repeat < 1 {
		repeat = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	if base.Pushers <= 0 {
		base.Pushers = DefaultReplPushers
	}
	out := ReplSurfaceResult{
		Trace:    traceCfg.Normalize(),
		Repeat:   repeat,
		Replicas: replicas,
		Pushers:  base.Pushers,
	}
	trace, err := Synthesize(traceCfg)
	if err != nil {
		return out, err
	}
	arms := []struct {
		replicas int
		counts   []int
		max      *int
	}{
		{0, soloCounts, &out.SoloMaxSustained},
		{replicas, replCounts, &out.ReplicatedMaxSustained},
	}
	for _, arm := range arms {
		for _, n := range arm.counts {
			cfg := base
			cfg.Subscribers = n
			cfg.Replicas = arm.replicas
			cfg.Trace = trace
			cell, err := fleetBestOf(cfg, repeat)
			if err != nil {
				return out, fmt.Errorf("bench: repl %d×/%d: %w", arm.replicas, n, err)
			}
			out.Cells = append(out.Cells, cell)
			if cell.Sustained && n > *arm.max {
				*arm.max = n
			}
		}
	}
	if out.SoloMaxSustained > 0 {
		out.CapacityRatio = float64(out.ReplicatedMaxSustained) / float64(out.SoloMaxSustained)
	}
	ack, err := AckCompare(0)
	if err != nil {
		return out, fmt.Errorf("bench: repl ack arm: %w", err)
	}
	out.AckLatency = ack
	if len(ack) == 2 {
		out.QuorumOverheadP50MS = ack[1].P50MS - ack[0].P50MS
	}
	fo, err := FailoverBench(FailoverConfig{})
	if err != nil {
		return out, fmt.Errorf("bench: repl failover arm: %w", err)
	}
	out.Failover = &fo
	return out, nil
}

// WriteReplSurfaceJSON writes the surface as indented JSON (the
// committed BENCH_repl.json format).
func WriteReplSurfaceJSON(w io.Writer, res ReplSurfaceResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string            `json:"experiment"`
		Result     ReplSurfaceResult `json:"result"`
	}{Experiment: "repl", Result: res})
}

// WriteReplSurface prints the surface and headline.
func WriteReplSurface(w io.Writer, res ReplSurfaceResult) {
	fmt.Fprintf(w, "repl surface: profile=%s target=%.0f rps × %d slots of %s, %d pushers/server\n",
		res.Trace.Profile, res.Trace.TargetRPS, res.Trace.Slots, res.Trace.SlotDur, res.Pushers)
	for _, c := range res.Cells {
		arm := "solo      "
		if c.Replicas > 0 {
			arm = fmt.Sprintf("replicas=%d", c.Replicas)
		}
		fmt.Fprintf(w, "%s ", arm)
		WriteFleetCell(w, c)
	}
	fmt.Fprintf(w, "max sustained within SLO: replicated=%d solo=%d capacity ratio=%.1f×\n",
		res.ReplicatedMaxSustained, res.SoloMaxSustained, res.CapacityRatio)
	if len(res.AckLatency) > 0 {
		WriteAckLatency(w, res.AckLatency)
		fmt.Fprintf(w, "quorum ACK overhead: p50 +%.3fms\n", res.QuorumOverheadP50MS)
	}
	if res.Failover != nil {
		WriteFailover(w, *res.Failover)
	}
}
