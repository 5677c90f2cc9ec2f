package ssd

import (
	"testing"

	"repro/internal/hic"
	"repro/internal/obs"
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
}

func TestMixedCopybackHiddenOnMulti(t *testing.T) {
	// Mixed backends: HW channels → multi backend must not claim
	// copyback support.
	be := NewMultiBackend(1, []Backend{
		&hwBackend{}, &hwBackend{},
	})
	if _, ok := be.(Copybacker); ok {
		t.Error("HW-only multi backend claims copyback")
	}
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
	// A write+read pass exercises the plain (no-copyback) multi backend:
	// reads, programs, and — with overwrites — erases on both channels.
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
	// The multi backend must expose chips by global index.
	if rig.SSD.backend.Chip(cfg.Ways) == nil {
		t.Error("global chip routing broken")
	}
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
}
