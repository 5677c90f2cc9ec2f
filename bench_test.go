// Package repro's root benchmark harness: the simulator's own host time.
// BenchmarkSimulationSpeed reports the real-time factor and
// BenchmarkFig10Sweep the parallel runner's wall-clock case. The paper's
// tables, figures and design ablations are pinned by
// internal/exp's TestFigureGoldens and printed by cmd/babolbench.
package repro

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// benchParams is the shrunken package of the simulation-speed rigs
// (shared with rtf_test.go).
func benchParams() nand.Params {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	return p
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
				if _, err := exp.Fig10(exp.Options{Ops: 60, Blocks: 16, Parallel: j.parallel}); err != nil {
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
