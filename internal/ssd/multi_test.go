package ssd

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestMultiChannelBuild(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 4
	rig := mustBuild(t, cfg)
	if len(rig.Channels) != 4 || len(rig.Babols) != 4 {
		t.Fatalf("channels=%d controllers=%d", len(rig.Channels), len(rig.Babols))
	}
	if rig.Channel != rig.Channels[0] || rig.Babol != rig.Babols[0] {
		t.Error("singular aliases wrong")
	}
	if rig.FTL.Chips() != 4*cfg.Ways {
		t.Errorf("FTL spans %d chips", rig.FTL.Chips())
	}
}

func TestMultiChannelReadWrite(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 2
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical / 2); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 100, QueueDepth: 16, LogicalPages: logical / 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 100 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	// Work must have reached chips on both channels.
	for c, ch := range rig.Channels {
		if ch.Stats().LatchBursts == 0 {
			t.Errorf("channel %d idle", c)
		}
	}
	auditDrained(t, rig)
}

// TestMultiChannelTxnQueuePerChannel: BuildConfig.TxnQueue builds one
// queue per channel controller. A queue shared by two channels let one
// controller pop and run the other's transactions, which broke the LUN
// protocol; passing the default policy explicitly must change nothing.
func TestMultiChannelTxnQueuePerChannel(t *testing.T) {
	const ops, qd = 400, 16
	run := func(txnQ func() sched.TxnQueue) (Stats, []sim.Time) {
		cfg := smallBuild(CtrlBabolRTOS)
		cfg.Channels, cfg.Ways, cfg.TxnQueue = 2, 4, txnQ
		rig := mustBuild(t, cfg)
		logical := rig.FTL.LogicalPages()
		if err := rig.SSD.Preload(logical); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		done := make([]sim.Time, 0, ops)
		failed, issued := 0, 0
		var issue func()
		issue = func() {
			issued++
			rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: rng.Intn(logical), Done: func(err error) {
				if err != nil {
					failed++
				}
				done = append(done, rig.Kernel.Now())
				if issued < ops {
					issue()
				}
			}})
		}
		for i := 0; i < qd; i++ {
			issue()
		}
		rig.Kernel.Run()
		if len(done) != ops || failed != 0 {
			t.Fatalf("%d of %d reads done, %d failed", len(done), ops, failed)
		}
		auditDrained(t, rig)
		return rig.SSD.Stats(), done
	}
	wantStats, wantDone := run(nil)
	gotStats, gotDone := run(sched.NewTxnIssueFirst)
	if gotStats != wantStats {
		t.Errorf("stats with explicit issue-first %+v, default %+v", gotStats, wantStats)
	}
	if !slices.Equal(gotDone, wantDone) {
		t.Error("completion times differ from the default scheduler's")
	}
}

func TestMultiChannelScalesBandwidth(t *testing.T) {
	measure := func(channels int) float64 {
		cfg := smallBuild(CtrlBabolRTOS)
		cfg.Channels = channels
		cfg.Ways = 2
		rig := mustBuild(t, cfg)
		working := 16 * channels
		if err := rig.SSD.Preload(working); err != nil {
			t.Fatal(err)
		}
		res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindRead,
			NumOps: 60 * channels, QueueDepth: 8 * channels, LogicalPages: working,
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.Kernel.Run()
		if res.Failed != 0 {
			t.Fatalf("%d failed", res.Failed)
		}
		auditDrained(t, rig)
		return res.BandwidthMBps(512)
	}
	one, four := measure(1), measure(4)
	if four < 3*one {
		t.Errorf("4 channels (%f) should be ≥3× one channel (%f)", four, one)
	}
}

func TestMultiChannelGCWithCopyback(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 2
	cfg.Ways = 1
	cfg.UseCopyback = true
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 3, QueueDepth: 2, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d writes failed", res.Failed)
	}
	if rig.SSD.Stats().GCCopybacks == 0 {
		t.Error("no copybacks across channels")
	}
	verified := 0
	for lpn := 0; lpn < logical; lpn++ {
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			verified++
		}})
	}
	rig.Kernel.Run()
	if verified != logical {
		t.Fatalf("verified %d/%d", verified, logical)
	}
	auditDrained(t, rig)
}

func TestTraceReplayThroughSSD(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	if err := rig.SSD.Preload(8); err != nil {
		t.Fatal(err)
	}
	us := sim.Time(sim.Microsecond)
	events := []obs.Event{
		{Kind: obs.KindHostEnqueue, Chip: -1, TxnID: 0},
		{Time: 10 * us, Kind: obs.KindHostEnqueue, Chip: -1, TxnID: 1},
		{Time: 10 * us, Kind: obs.KindHostEnqueue, Chip: -1, Cycles: int64(hic.KindWrite), TxnID: 9},
		{Time: 500 * us, Kind: obs.KindHostEnqueue, Chip: -1, TxnID: 9},
	}
	f, err := hic.NewFrontend(rig.Kernel, rig.SSD, hic.FrontendConfig{Queues: []hic.QueueConfig{{Depth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hic.Replay(rig.Kernel, f, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 4 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.MeanLatency() <= 0 {
		t.Error("no latency recorded")
	}
	auditDrained(t, rig)
}

func TestMultiChannelHWBaseline(t *testing.T) {
	cfg := smallBuild(CtrlHW)
	cfg.Channels = 2
	rig := mustBuild(t, cfg)
	if len(rig.HWs) != 2 {
		t.Fatalf("HW controllers: %d", len(rig.HWs))
	}
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical / 2); err != nil {
		t.Fatal(err)
	}
	// A write+read pass exercises the HW backends: reads, programs, and —
	// with overwrites — erases on both channels.
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical, QueueDepth: 4, LogicalPages: logical / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d failed", res.Failed)
	}
	reads, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 40, QueueDepth: 4, LogicalPages: logical / 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if reads.Failed != 0 {
		t.Fatalf("%d reads failed", reads.Failed)
	}
	for c, ch := range rig.Channels {
		if ch.Stats().LatchBursts == 0 {
			t.Errorf("channel %d idle", c)
		}
	}
	// Global chip Ways is way 0 of channel 1.
	if rig.SSD.lun(cfg.Ways) != rig.Channels[1].Chip(0) {
		t.Error("global chip routing broken")
	}
	auditDrained(t, rig)
}

func TestECCScrubDuringGC(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.WithECC = true
	// Keep the raw rate within SEC-DED's single-bit budget: worst-case
	// expected flips per codeword = rate × wearFrac × maxRetryMismatch
	// = 0.3 × 0.5 × 6 ≤ 1.
	cfg.Params.RawBitErrorPer512B = 0.3
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()

	// Age the whole chip so reads carry correctable single-bit errors,
	// then churn writes until GC relocates pages. The scrub must keep
	// every host read correctable (no error accumulation across
	// relocation generations).
	for b := 0; b < cfg.Params.Geometry.BlocksPerLUN; b++ {
		rig.Channel.Chip(0).Wear(b, cfg.Params.MaxPECycles/2)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 4, QueueDepth: 1, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d writes failed", res.Failed)
	}
	if rig.SSD.Stats().GCCycles == 0 {
		t.Fatal("no GC ran")
	}
	failures := 0
	for lpn := 0; lpn < logical; lpn++ {
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				failures++
			}
		}})
	}
	rig.Kernel.Run()
	if failures != 0 {
		t.Errorf("%d uncorrectable reads after scrubbed GC", failures)
	}
	auditDrained(t, rig)
}

// TestScratchWindowPerController: every BABOL controller of a rig stages
// its SET FEATURES parameters in a DRAM scratch region of its own. Two
// channels setting the same feature to different values at the same
// instant must each leave their own value on their own chip.
func TestScratchWindowPerController(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 2
	rig := mustBuild(t, cfg)
	want := []byte{0x11, 0x22}
	for c, v := range want {
		rig.Babols[c].Start(core.OpRequest{
			Func: ops.SetFeature(onfi.FeatDriveStrength, [4]byte{v}), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Errorf("channel %d: set feature: %v", c, err)
				}
			},
		})
	}
	rig.Kernel.Run()
	got := make([][4]byte, len(want))
	for c := range want {
		rig.Babols[c].Start(core.OpRequest{
			Func: ops.GetFeature(onfi.FeatDriveStrength, &got[c]), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Errorf("channel %d: get feature: %v", c, err)
				}
			},
		})
	}
	rig.Kernel.Run()
	for c, v := range want {
		if got[c][0] != v {
			t.Errorf("channel %d chip 0 reads drive strength %#x, set %#x", c, got[c][0], v)
		}
	}
	auditDrained(t, rig)
}
