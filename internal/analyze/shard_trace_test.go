package analyze

import (
	"reflect"
	"testing"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// shardedTrace drives a multi-channel workload on a sharded rig and
// returns the merged trace plus the live metrics snapshot. The merge
// (ssd.Rig.Run) orders per-domain buffers by (time, domain), so events
// from different channels interleave at equal timestamps — the ordering
// this file's tests require the analyzer to tolerate.
func shardedTrace(t *testing.T) ([]obs.Event, *obs.Metrics) {
	t.Helper()
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	var buf obs.Buffer
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: p, Channels: 2, Ways: 2, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
		Observe: true, Tracer: &buf,
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	const reads = 48
	if err := rig.SSD.Preload(reads); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: reads, QueueDepth: 8, LogicalPages: reads,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if res.Completed != reads || res.Failed != 0 {
		t.Fatalf("workload: %d/%d completed, %d failed", res.Completed, reads, res.Failed)
	}
	return buf.Events(), rig.Metrics
}

// TestAnalyzeShardMergedTrace is the regression test for shard-merged
// trace ordering: span correlation, the per-channel timelines, and the
// protocol checker must handle a trace whose channels interleave at
// equal timestamps without inventing run boundaries or violations.
func TestAnalyzeShardMergedTrace(t *testing.T) {
	events, metrics := shardedTrace(t)

	// The merge must actually produce the ordering under test: at least
	// one adjacent pair from different channels at the same timestamp.
	interleaved := false
	for i := 1; i < len(events); i++ {
		if events[i].Time == events[i-1].Time && events[i].Channel != events[i-1].Channel {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Fatal("merged trace has no equal-timestamp cross-channel interleaving; test is vacuous")
	}

	want := metrics.Snapshot()
	a := Analyze(events)
	if len(a.Runs) != 1 {
		t.Fatalf("analyzer split one sharded rig into %d runs", len(a.Runs))
	}
	if got := uint64(len(a.Spans)); got != want.OpsFinished {
		t.Fatalf("spans = %d, metrics ops = %d", got, want.OpsFinished)
	}
	var chanSum sim.Duration
	for i := range a.Spans {
		s := &a.Spans[i]
		if !s.Complete {
			t.Fatalf("incomplete span %+v in a fully drained trace", s)
		}
		chanSum += s.ChannelTime
	}
	if chanSum != want.HardwareTime {
		t.Fatalf("span channel time %v != metrics hardware time %v", chanSum, want.HardwareTime)
	}

	// Both channels must reconstruct into timelines whose summed busy
	// time is the registry's hardware time, each rendering a Gantt.
	var busy sim.Duration
	lanes := 0
	for ch, tl := range a.Runs[0].Timelines {
		if tl == nil {
			continue
		}
		lanes++
		busy += tl.Occupancy().Busy
		if g := tl.Gantt(40); g == "" {
			t.Errorf("channel %d: empty gantt", ch)
		}
	}
	if lanes != 2 {
		t.Fatalf("reconstructed %d channel timelines, want 2", lanes)
	}
	if busy != want.HardwareTime {
		t.Fatalf("summed timeline busy %v != hardware time %v", busy, want.HardwareTime)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("spurious protocol violations on a shard-merged trace: %v", a.Violations)
	}
}

// TestAnalyzeEqualTimestampOrderInsensitive pins the tolerance property
// directly: swapping any adjacent equal-timestamp events from different
// channels — the freedom a shard merge has — must not change the
// analysis. Per-channel order stays fixed; only cross-channel order at
// equal times is permuted.
func TestAnalyzeEqualTimestampOrderInsensitive(t *testing.T) {
	events, _ := shardedTrace(t)
	ref := Analyze(events)

	permuted := append([]obs.Event(nil), events...)
	swaps := 0
	for i := 1; i < len(permuted); i++ {
		if permuted[i].Time == permuted[i-1].Time && permuted[i].Channel != permuted[i-1].Channel {
			permuted[i-1], permuted[i] = permuted[i], permuted[i-1]
			swaps++
			i++ // don't swap the same pair back on the next step
		}
	}
	if swaps == 0 {
		t.Fatal("no equal-timestamp cross-channel pairs to permute; test is vacuous")
	}

	got := Analyze(permuted)
	if len(got.Runs) != len(ref.Runs) {
		t.Fatalf("permuted trace split into %d runs, reference %d", len(got.Runs), len(ref.Runs))
	}
	if !reflect.DeepEqual(got.Components, ref.Components) {
		t.Errorf("component summaries diverged under equal-timestamp reordering:\nref %+v\ngot %+v",
			ref.Components, got.Components)
	}
	if len(got.Violations) != len(ref.Violations) {
		t.Errorf("violations diverged under equal-timestamp reordering: ref %v, got %v",
			ref.Violations, got.Violations)
	}
	refOcc := ref.Runs[0].Timelines[0].Occupancy()
	gotOcc := got.Runs[0].Timelines[0].Occupancy()
	if !reflect.DeepEqual(refOcc, gotOcc) {
		t.Errorf("occupancy diverged under equal-timestamp reordering: ref %+v, got %+v", refOcc, gotOcc)
	}
}
