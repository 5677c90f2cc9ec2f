// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (regenerate everything with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out. Bandwidth results are attached as custom
// `MB/s` metrics; `cmd/babolbench` prints the same data as tables.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ftl"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// benchOpt keeps per-iteration work small while preserving shapes. The
// zero Parallel fans each sweep's rigs out across the CPUs; the
// serial-vs-parallel comparison lives in BenchmarkFig10Sweep.
func benchOpt() exp.Options {
	return exp.Options{Ops: 60, Blocks: 16}
}

// BenchmarkTable1Presets regenerates Table I (flash memory parameters).
func BenchmarkTable1Presets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.RenderTable1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2LoC regenerates Table II (lines of code per operation).
func BenchmarkTable2LoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable3Area regenerates Table III (FPGA resources).
func BenchmarkTable3Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.Table3()) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig10ReadThroughput regenerates the Figure 10 sweep (reduced
// LUN list per iteration) and reports the headline corner: Hynix,
// 200 MT/s, 8 LUNs, RTOS at 1 GHz.
func BenchmarkFig10ReadThroughput(b *testing.B) {
	var headline float64
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig10(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Package == "Hynix" && p.RateMT == 200 && p.LUNs == 8 &&
				p.Controller == ssd.CtrlBabolRTOS && p.CPUMHz == 1000 {
				headline = p.MBps
			}
		}
	}
	b.ReportMetric(headline, "MB/s")
}

// BenchmarkFig11PollPeriod regenerates the Figure 11 polling analysis
// and reports the coroutine environment's poll period in microseconds
// (the paper measures ≈30 µs).
func BenchmarkFig11PollPeriod(b *testing.B) {
	var coroPeriod float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig11(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Controller == ssd.CtrlBabolCoro {
				coroPeriod = r.MeanPollPeriod.Micros()
			}
		}
	}
	b.ReportMetric(coroPeriod, "us/poll")
}

// BenchmarkFig12EndToEnd regenerates the Figure 12 end-to-end comparison
// at 8 ways and reports BABOL-RTOS's bandwidth delta versus the hardware
// baseline in percent (paper: −2 % sequential).
func BenchmarkFig12EndToEnd(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		opt := benchOpt()
		opt.Ops = 120
		pts, err := exp.Fig12(opt)
		if err != nil {
			b.Fatal(err)
		}
		var hw, rtos float64
		for _, p := range pts {
			if p.Pattern == hic.Sequential && p.Ways == 8 {
				switch p.Controller {
				case ssd.CtrlHW:
					hw = p.MBps
				case ssd.CtrlBabolRTOS:
					rtos = p.MBps
				}
			}
		}
		delta = (rtos - hw) / hw * 100
	}
	b.ReportMetric(delta, "%vsHW")
}

// --------------------------------------------------------- ablations --

// benchParams is the shrunken package used by the ablations.
func benchParams() nand.Params {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	return p
}

// readBandwidth runs a read workload on a fresh rig and returns MB/s.
func readBandwidth(b *testing.B, cfg ssd.BuildConfig, ops, qd int) float64 {
	b.Helper()
	rig, err := ssd.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	working := 32 * cfg.Ways
	if err := rig.SSD.Preload(working); err != nil {
		b.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: ops, QueueDepth: qd, LogicalPages: working,
	})
	if err != nil {
		b.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		b.Fatalf("%d ops failed", res.Failed)
	}
	return res.BandwidthMBps(cfg.Params.Geometry.PageBytes)
}

// BenchmarkAblationTxnScheduler compares BABOL's transaction-scheduler
// policies at 4 ways — the design choice §V leaves to the SSD Architect.
// The policies are enumerated as an ordered job table (a map would give
// the sub-benchmarks a shuffled order run to run).
func BenchmarkAblationTxnScheduler(b *testing.B) {
	tm := onfi.DefaultTiming()
	bus := onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}
	jobs := []struct {
		name string
		mk   func() sched.TxnQueue
	}{
		{"issue-first", sched.NewTxnIssueFirst},
		{"round-robin", sched.NewTxnRoundRobin},
		{"fifo", sched.NewTxnFIFO},
		{"shortest-first", func() sched.TxnQueue { return sched.NewTxnShortestFirst(tm, bus) }},
	}
	for _, j := range jobs {
		j := j
		b.Run(j.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = readBandwidth(b, ssd.BuildConfig{
					Params: benchParams(), Ways: 4, RateMT: 200,
					Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, TxnQueue: j.mk,
				}, 80, 16)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkAblationPollVsFixedWait compares status polling against the
// naive fixed-tR wait — the design choice behind Algorithm 2's poll loop
// (tR is variable, so a safe fixed wait must be pessimistic).
func BenchmarkAblationPollVsFixedWait(b *testing.B) {
	run := func(b *testing.B, fixed bool) sim.Duration {
		rig, err := ssd.Build(ssd.BuildConfig{
			Params: benchParams(), Ways: 1, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer rig.Close()
		lun := rig.Channel.Chip(0)
		if err := lun.SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			b.Fatal(err)
		}
		op := ops.ReadPage(onfi.Addr{}, 0, lun.Params().Geometry.PageBytes)
		if fixed {
			// A safe fixed wait must cover worst-case tR (nominal plus
			// the jitter bound).
			worst := lun.Params().TR + lun.Params().TR/10
			op = ops.ReadPageFixedWait(onfi.Addr{}, 0, lun.Params().Geometry.PageBytes, worst)
		}
		var end sim.Time
		rig.Babol.Start(core.OpRequest{
			Func: op, Chip: 0,
			Done: func(err error) {
				if err != nil {
					b.Fatal(err)
				}
				end = rig.Kernel.Now()
			},
		})
		rig.Kernel.Run()
		return sim.Duration(end)
	}
	for _, j := range []struct {
		name  string
		fixed bool
	}{{"poll", false}, {"fixed-wait", true}} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			var d sim.Duration
			for i := 0; i < b.N; i++ {
				d = run(b, j.fixed)
			}
			b.ReportMetric(d.Micros(), "us/read")
		})
	}
}

// BenchmarkAblationECC measures the end-to-end cost of running the
// SEC-DED datapath on every read.
func BenchmarkAblationECC(b *testing.B) {
	for _, j := range []struct {
		name string
		ecc  bool
	}{{"off", false}, {"on", true}} {
		ecc := j.ecc
		b.Run(j.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = readBandwidth(b, ssd.BuildConfig{
					Params: benchParams(), Ways: 4, RateMT: 200,
					Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, WithECC: ecc,
				}, 80, 16)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkAblationCPUFrequency sweeps the firmware clock for the
// coroutine environment — the paper's "what processor does each software
// environment need" question, isolated.
func BenchmarkAblationCPUFrequency(b *testing.B) {
	for _, mhz := range []int{150, 400, 1000} {
		mhz := mhz
		b.Run(fmt.Sprintf("coro-%dMHz", mhz), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = readBandwidth(b, ssd.BuildConfig{
					Params: benchParams(), Ways: 8, RateMT: 200,
					Controller: ssd.CtrlBabolCoro, CPUMHz: mhz,
				}, 80, 16)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkAblationCopybackGC measures garbage collection with NAND
// copyback (page moves stay inside the LUN) against read-out/write-in
// relocation, under a steady overwrite load.
func BenchmarkAblationCopybackGC(b *testing.B) {
	run := func(b *testing.B, copyback bool) float64 {
		p := benchParams()
		p.Geometry.BlocksPerLUN = 12
		// Scaled-down array times keep the bench quick; the ablation
		// compares channel traffic, which scaling preserves.
		p.TR = 20 * sim.Microsecond
		p.TPROG = 50 * sim.Microsecond
		p.TBERS = 200 * sim.Microsecond
		rig, err := ssd.Build(ssd.BuildConfig{
			Params: p, Ways: 2, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, UseCopyback: copyback,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer rig.Close()
		logical := rig.FTL.LogicalPages()
		res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindWrite,
			NumOps: logical * 3, QueueDepth: 4, LogicalPages: logical,
		})
		if err != nil {
			b.Fatal(err)
		}
		rig.Kernel.Run()
		if res.Failed != 0 {
			b.Fatalf("%d writes failed", res.Failed)
		}
		return res.BandwidthMBps(p.Geometry.PageBytes)
	}
	for _, j := range []struct {
		name     string
		copyback bool
	}{{"read-program", false}, {"copyback", true}} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = run(b, j.copyback)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkAblationEraseSuspend measures read p99 latency under write+GC
// pressure with and without read-priority erase suspension — the
// tail-latency optimization of the erase-suspend literature the paper
// cites, expressed as one software operation.
func BenchmarkAblationEraseSuspend(b *testing.B) {
	run := func(b *testing.B, suspend bool) sim.Duration {
		p := benchParams()
		// A small, fast geometry keeps GC erases frequent enough that
		// the 80 sampled reads actually collide with them.
		p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 16, PagesPerBlk: 4, PageBytes: 512, SpareBytes: 64}
		p.JitterPct = 0
		p.TR = 20 * sim.Microsecond
		p.TPROG = 50 * sim.Microsecond
		p.TBERS = 3 * sim.Millisecond
		rig, err := ssd.Build(ssd.BuildConfig{
			Params: p, Ways: 1, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, SuspendReads: suspend,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer rig.Close()
		logical := rig.FTL.LogicalPages()
		if err := rig.SSD.Preload(logical); err != nil {
			b.Fatal(err)
		}
		writes := 0
		var writeNext func()
		writeNext = func() {
			if writes >= logical*3 {
				return
			}
			writes++
			rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: writes % logical, Done: func(err error) {
				if err != nil {
					b.Fatal(err)
				}
				writeNext()
			}})
		}
		writeNext()
		res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: hic.Random, Kind: hic.KindRead,
			NumOps: 80, QueueDepth: 1, LogicalPages: logical, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		rig.Kernel.Run()
		return res.LatencyPercentile(99)
	}
	for _, j := range []struct {
		name    string
		suspend bool
	}{{"baseline", false}, {"suspend", true}} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			var p99 sim.Duration
			for i := 0; i < b.N; i++ {
				p99 = run(b, j.suspend)
			}
			b.ReportMetric(p99.Micros(), "p99-us")
		})
	}
}

// BenchmarkAblationMultiPlane compares multi-plane reads (one shared tR
// for both planes) against serial single-plane reads on one LUN.
func BenchmarkAblationMultiPlane(b *testing.B) {
	run := func(b *testing.B, multi bool) sim.Duration {
		p := benchParams()
		rig, err := ssd.Build(ssd.BuildConfig{
			Params: p, Ways: 1, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer rig.Close()
		lun := rig.Channel.Chip(0)
		rows := []onfi.RowAddr{{Block: 0, Page: 0}, {Block: 1, Page: 0}} // planes 0 and 1
		for _, r := range rows {
			if err := lun.SeedPage(r, []byte{1}); err != nil {
				b.Fatal(err)
			}
		}
		n := p.Geometry.PageBytes
		var end sim.Time
		if multi {
			rig.Babol.Start(core.OpRequest{
				Func: ops.MPReadPages(rows, 0, n), Chip: 0,
				Done: func(err error) {
					if err != nil {
						b.Fatal(err)
					}
					end = rig.Kernel.Now()
				},
			})
		} else {
			rig.Babol.Start(core.OpRequest{
				Func: ops.ReadPage(onfi.Addr{Row: rows[0]}, 0, n), Chip: 0,
				Done: func(err error) {
					if err != nil {
						b.Fatal(err)
					}
					rig.Babol.Start(core.OpRequest{
						Func: ops.ReadPage(onfi.Addr{Row: rows[1]}, n, n), Chip: 0,
						Done: func(err error) {
							if err != nil {
								b.Fatal(err)
							}
							end = rig.Kernel.Now()
						},
					})
				},
			})
		}
		rig.Kernel.Run()
		return sim.Duration(end)
	}
	for _, j := range []struct {
		name  string
		multi bool
	}{{"single-plane", false}, {"multi-plane", true}} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			var d sim.Duration
			for i := 0; i < b.N; i++ {
				d = run(b, j.multi)
			}
			b.ReportMetric(d.Micros(), "us/2pages")
		})
	}
}

// ------------------------------------------------------------- FTL --

// benchFTL builds an 8-chip FTL at 4 KiB pages: 7936 logical pages in
// 16 translation groups.
func benchFTL(b *testing.B) *ftl.FTL {
	b.Helper()
	f, err := ftl.NewWithConfig(ftl.Config{
		Geometry: onfi.Geometry{
			Planes: 1, BlocksPerLUN: 64, PagesPerBlk: 16,
			PageBytes: 4096, SpareBytes: 128,
		},
		Chips: 8, ReservedBlocks: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFTLLookup measures translation throughput on a fully mapped
// drive.
func BenchmarkFTLLookup(b *testing.B) {
	f := benchFTL(b)
	logical := f.LogicalPages()
	for lpn := 0; lpn < logical; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	lpn := 0
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(lpn); !ok {
			b.Fatal("unmapped")
		}
		// Prime stride so consecutive lookups hop translation groups.
		lpn = (lpn + 4099) % logical
	}
}

// allocateWithRelief is the benchmark's write path: overwrite lpn,
// running a GC sweep when the drive is out of space.
func allocateWithRelief(b *testing.B, f *ftl.FTL, lpn int) {
	// Sweep-then-retry until the allocation lands (bounded: a stuck
	// sweep means a bug, not pressure).
	for attempt := 0; attempt < 100; attempt++ {
		if _, err := f.AllocateWrite(lpn); err == nil {
			return
		}
		for chip := 0; chip < f.Chips(); chip++ {
			victim, live, ok := f.GCCandidate(chip)
			if !ok {
				continue
			}
			cleared := true
			for _, l := range live {
				if _, err := f.RelocateForGC(l); err != nil {
					cleared = false
					break
				}
			}
			if cleared {
				f.OnErased(chip, victim)
			}
		}
	}
	b.Fatal("ftl: GC relief made no progress after 100 sweeps")
}

// BenchmarkFTLAllocate measures steady-state overwrite allocation —
// map update, old-page invalidation, GC relief when the drive fills.
// Writes overwrite half the logical space so every allocation also
// invalidates.
func BenchmarkFTLAllocate(b *testing.B) {
	f := benchFTL(b)
	working := f.LogicalPages() / 2
	b.ResetTimer()
	lpn := 0
	for i := 0; i < b.N; i++ {
		allocateWithRelief(b, f, lpn)
		lpn = (lpn + 4099) % working
	}
}

// BenchmarkFig10Sweep runs the Figure 10 sweep serially and with the
// worker pool — the wall-clock case for the parallel runner. Results
// are byte-identical either way (TestParallelSweepDeterminism); only
// the elapsed time differs.
func BenchmarkFig10Sweep(b *testing.B) {
	for _, j := range []struct {
		name     string
		parallel int
	}{{"serial", 1}, {"parallel", 0}} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := benchOpt()
				opt.Parallel = j.parallel
				if _, err := exp.Fig10(opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// simulationSpeed drives one read workload on a fresh rig and returns
// the virtual time it covered plus, on sharded rigs, the cluster's
// window and event counts from the armed shard telemetry (zero on the
// legacy path, which has no windows). Rig construction and preload run
// with the timer stopped so the metric measures the discrete-event
// engine, not DRAM zeroing. shards 0 is the legacy single-kernel path;
// shards ≥ 1 runs the conservative time-window cluster (windowed
// timestamps include the modeled 1 µs host hop, so virtual spans differ
// slightly from the legacy run — the RTF ratio stays comparable).
// Arming the telemetry is free by contract: byte-identical results and
// ~0 allocs/event (TestShardedTelemetryInvariance,
// TestAllocGateShardTelemetry), so the bench measures the same engine
// users run.
func simulationSpeed(b *testing.B, channels, ways, shards int) (virtual sim.Duration, windows, events uint64) {
	b.Helper()
	b.StopTimer()
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: benchParams(), Channels: channels, Ways: ways, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
		Shards: shards, ShardTelemetry: shards >= 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Workload scales with the chip count so every LUN on every channel
	// stays busy: the full-drive configuration is 64× the single-channel
	// one in chips AND in operations.
	working := 64 * channels
	if err := rig.SSD.Preload(working); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	if _, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 200 * channels, QueueDepth: 16 * channels, LogicalPages: working,
	}); err != nil {
		b.Fatal(err)
	}
	rig.Run()
	virtual = sim.Duration(rig.Now())
	if rig.Telemetry != nil {
		snap := rig.Telemetry.Snapshot()
		windows = snap.Windows
		for _, s := range snap.Shards {
			events += s.Events
		}
	}
	b.StopTimer()
	rig.Close()
	b.StartTimer()
	return virtual, windows, events
}

// BenchmarkSimulationSpeed reports how much virtual time one wall-second
// of simulation covers — the real-time factor, the practicality metric
// for using this library interactively (virtual-s/wall-s > 1 means the
// simulation outruns the hardware it models). Two scales:
//
//   - 1ch-8way: the historical configuration (BENCH_4.json's 7.3).
//   - full-drive-8ch-8way: 8 channels × 8 LUNs, the paper's full-drive
//     shape, with a proportionally scaled workload. This is the number
//     EXPERIMENTS.md's "Real-time factor" section tracks and the CI
//     floor in BENCH_6.json gates.
//
// Run with -benchmem: allocs/op is the per-workload allocation budget
// that the kernel's slot-recycling event queue and the controller's
// coroutine pool together keep flat.
// The sharded sub-benches measure the conservative time-window cluster
// at the full-drive shape: windowed is the single-kernel
// ablation (protocol cost with zero parallelism), sharded spreads the
// 8 channels over 8 shard kernels plus the host shard. On a single-core
// runner the windowed protocol is pure overhead (one barrier per
// microsecond of virtual time); the shard win needs real CPUs.
func BenchmarkSimulationSpeed(b *testing.B) {
	for _, j := range []struct {
		name           string
		channels, ways int
		shards         int
	}{
		{"1ch-8way", 1, 8, 0},
		{"full-drive-8ch-8way", 8, 8, 0},
		{"full-drive-8ch-8way-windowed", 8, 8, 1},
		{"full-drive-8ch-8way-sharded", 8, 8, 9},
	} {
		j := j
		b.Run(j.name, func(b *testing.B) {
			b.ReportAllocs()
			var virtualPerIter sim.Duration
			var windows, events uint64
			for i := 0; i < b.N; i++ {
				v, w, e := simulationSpeed(b, j.channels, j.ways, j.shards)
				virtualPerIter = v
				windows += w
				events += e
			}
			b.ReportMetric(virtualPerIter.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "virtual-s/wall-s")
			if windows > 0 {
				// Windowed-protocol self-report from the armed shard
				// telemetry: how many barrier windows the run paid for
				// and how much event work each one bought.
				b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
				b.ReportMetric(float64(events)/float64(windows), "ev/window")
			}
		})
	}
}
