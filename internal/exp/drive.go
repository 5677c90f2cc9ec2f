package exp

import (
	"fmt"
	"strings"

	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Whole-drive runs: one host stream on one rig, the way the paper drives
// the Cosmos+ SSD with fio for Figure 12. Every rig in the package — each
// figure's closed loop (runClean), the chaos soak, the synthetic stream
// and both replays (Drive's flag-shaped rig and the tenant rig of
// ReplayWorkload), and every tenant run — is built and run by one body,
// driveRig.

// driveRig is the one body every rig runs through: build the rig cfg
// describes, preload its first preload pages so reads hit mapped pages,
// wire the frontend fc describes, let start attach the stream, run the
// rig to quiescence, and check the frontend drained. A nil fc leaves the
// frontend to the stream (hic.Run brings its own one-queue window). It
// returns the drained rig, whose counters and LUN arrays stay readable
// after its Close.
func driveRig(opt Options, cfg ssd.BuildConfig, preload int, fc *hic.FrontendConfig, tracer obs.Tracer,
	start func(rig *ssd.Rig, f *hic.Frontend) error) (*ssd.Rig, error) {
	// The rig-wide options every experiment shares are laid over the
	// experiment's own configuration here, the one place that knows them.
	cfg.Tracer = tracer
	cfg.MapCacheBytes = opt.MapCacheBytes
	rig, err := ssd.Build(cfg)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	if err := rig.SSD.Preload(preload); err != nil {
		return nil, err
	}
	var f *hic.Frontend
	if fc != nil {
		if f, err = hic.NewFrontend(rig.Kernel, rig.SSD, *fc); err != nil {
			return nil, err
		}
	}
	if err := start(rig, f); err != nil {
		return nil, err
	}
	rig.Run()
	if f != nil && !f.Drained() {
		return nil, fmt.Errorf("frontend not drained: %d in flight, %d pending", f.InFlight(), f.Pending())
	}
	return rig, nil
}

// runClean drives w's closed loop through hic.Run on the rig cfg
// describes, preloaded over w's pages, and fails unless every command
// completed without error. A non-nil probe receives the channel's
// pin-level bus events (bus.Channel.SetTracer).
func runClean(opt Options, cfg ssd.BuildConfig, tracer obs.Tracer, w hic.Workload, probe obs.Tracer) (*hic.Result, *ssd.Rig, error) {
	var res *hic.Result
	rig, err := driveRig(opt, cfg, w.LogicalPages, nil, tracer, func(r *ssd.Rig, _ *hic.Frontend) (err error) {
		if probe != nil {
			r.Channel.SetTracer(probe)
		}
		res, err = hic.Run(r.Kernel, r.SSD, w)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Completed != w.NumOps || res.Failed != 0 {
		return nil, nil, fmt.Errorf("exp: %d of %d ops completed, %d failed", res.Completed, w.NumOps, res.Failed)
	}
	return res, rig, nil
}

// runOne runs one stream on one rig under the sweep runner, so
// Options.Tracer and Options.Live see it as they see any sweep, and
// fails unless all want of its commands terminated. start attaches the
// stream and returns its result.
func runOne(opt Options, cfg ssd.BuildConfig, preload int, fc *hic.FrontendConfig, want int,
	start func(r *ssd.Rig, f *hic.Frontend) (*hic.Result, error)) (*hic.Result, *ssd.Rig, error) {
	var res *hic.Result
	rigs, err := sweep(opt, []ssd.BuildConfig{cfg}, func(cfg ssd.BuildConfig, tracer obs.Tracer) (*ssd.Rig, error) {
		rig, err := driveRig(opt, cfg, preload, fc, tracer, func(r *ssd.Rig, f *hic.Frontend) (err error) {
			res, err = start(r, f)
			return err
		})
		if err == nil && res.Done() != want {
			err = fmt.Errorf("only %d of %d commands terminated", res.Done(), want)
		}
		return rig, err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, rigs[0], nil
}

// replay plays a recording (see hic.Replay) back open loop on a fresh
// rig shaped by cfg, behind the frontend fc describes and preloaded over
// the span the trace touches, and fails unless every command terminated.
// It returns the aggregate result and the drained rig.
func replay(opt Options, cfg ssd.BuildConfig, fc hic.FrontendConfig, events []obs.Event) (*hic.Result, *ssd.Rig, error) {
	_, span, err := hic.CheckRecording(events, len(fc.Queues))
	if err != nil {
		return nil, nil, err
	}
	return runOne(opt, cfg, span, &fc, len(events), func(r *ssd.Rig, f *hic.Frontend) (*hic.Result, error) {
		return hic.Replay(r.Kernel, f, events, r.HostTracer())
	})
}

// Drive is one fio-like run of a whole drive: the rig cfg describes (its
// zero fields defaulted as ssd.Build defaults them, its Params preset
// shrunk to opt.Blocks) runs w's closed loop for opt.Ops commands over
// 64 pages per LUN, preloaded when w reads. With events
// non-nil it replays that recording instead — one submission queue per
// recorded queue, each with w.QueueDepth as its window — preloaded over
// the span the trace touches. The report's first line names the
// stream (title) and the rig; the rest gives completions, bandwidth,
// latency, the drive's GC and ECC counters, and write amplification when
// the stream wrote.
func Drive(opt Options, cfg ssd.BuildConfig, w hic.Workload, events []obs.Event, title string) (string, error) {
	opt = opt.withDefaults()
	// Size the stream and name the rig from the shape Build assembles,
	// not the zeros it defaults.
	cfg = cfg.WithDefaults()
	cfg.Params = shrink(cfg.Params, opt.Blocks)
	var (
		res  *hic.Result
		rig  *ssd.Rig
		want int
		err  error
	)
	if events != nil {
		var queues int
		if queues, _, err = hic.CheckRecording(events, 0); err != nil {
			return "", err
		}
		qcs := make([]hic.QueueConfig, queues)
		for i := range qcs {
			qcs[i].Depth = w.QueueDepth
		}
		want = len(events)
		res, rig, err = replay(opt, cfg, hic.FrontendConfig{Queues: qcs}, events)
	} else {
		w.NumOps, w.LogicalPages, w.Seed = opt.Ops, 64*cfg.Ways*cfg.Channels, 1
		want = w.NumOps
		preload := 0
		if w.Kind == hic.KindRead {
			preload = w.LogicalPages
		}
		res, rig, err = runOne(opt, cfg, preload, nil, w.NumOps, func(r *ssd.Rig, _ *hic.Frontend) (*hic.Result, error) {
			return hic.Run(r.Kernel, r.SSD, w)
		})
	}
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "drive: %s on %s, %d ch × %d ways @ %d MT/s, %s controller",
		title, cfg.Params.Name, cfg.Channels, cfg.Ways, cfg.RateMT, cfg.Controller)
	if cfg.Controller != ssd.CtrlHW {
		fmt.Fprintf(&b, " (%d MHz)", cfg.CPUMHz)
	}
	fmt.Fprintf(&b, "\n  completed: %d/%d (%d failed)\n", res.Completed, want, res.Failed)
	fmt.Fprintf(&b, "  elapsed:   %v (virtual)\n", res.Elapsed())
	fmt.Fprintf(&b, "  bandwidth: %.1f MB/s   IOPS: %.0f\n", res.BandwidthMBps(cfg.Params.Geometry.PageBytes), res.IOPS())
	fmt.Fprintf(&b, "  latency:   mean %v, p50 %v, p99 %v\n",
		res.MeanLatency(), res.LatencyPercentile(50), res.LatencyPercentile(99))
	st := rig.SSD.Stats()
	fmt.Fprintf(&b, "  ssd:       GC cycles %d, ECC corrections %d/%d failures\n",
		st.GCCycles, st.ECCCorrections, st.ECCFailures)
	if res.Writes > 0 {
		fmt.Fprintf(&b, "  ftl:       write amplification %.2f\n", rig.FTL.Stats().WriteAmplification())
	}
	return b.String(), nil
}
