// Package exp contains the experiment harness: one entry point per table
// and figure of the paper's evaluation (Section VI). Each experiment
// builds the necessary rigs, runs the workload in virtual time, and
// returns both structured results and a rendered text table whose rows
// match what the paper reports.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Options tune experiment scale. Zero values select the full-fidelity
// defaults; tests use reduced op counts to stay fast.
type Options struct {
	// Ops is the number of host operations per measured configuration.
	Ops int
	// WaysList overrides the LUN counts swept (capped per package).
	WaysList []int
	// Blocks shrinks the per-LUN block count (throughput experiments do
	// not need full-capacity arrays).
	Blocks int
	// Tracer receives the event stream of every rig an experiment
	// builds (e.g. a JSONL sink for babolbench -trace). nil disables.
	// The tracer itself need not be concurrency-safe even when sweeps
	// run in parallel: rigs trace into private buffers that are merged
	// into it, in configuration order, after the sweep settles.
	Tracer obs.Tracer
	// Live receives every rig's events directly from the sweep workers,
	// as they happen — the feed behind `babolbench -http` live
	// introspection. Unlike Tracer it sees a nondeterministic
	// interleaving of concurrent rigs and MUST be safe for concurrent
	// use (obs.SyncMetrics is); use it only for order-insensitive
	// aggregation. nil disables.
	Live obs.Tracer
	// Parallel bounds the sweep worker pool: how many rigs run
	// concurrently (each on its own single-threaded kernel). 0 means
	// one worker per available CPU; 1 forces the serial order, useful
	// when debugging a single configuration. Results are deterministic
	// and byte-identical at every setting.
	Parallel int
	// NoCoroPool builds every rig without its per-rig coroutine pool
	// (fresh goroutine per operation). Results and traces are identical
	// either way — TestCoroPoolDeterminism holds the two paths byte-for-
	// byte equal — so this exists for that comparison and for isolating
	// pool bugs, not for normal use.
	NoCoroPool bool
	// MapCacheBytes bounds the DRAM budget of every rig's FTL
	// translation map (ssd.BuildConfig.MapCacheBytes): map pages are
	// demand-paged under the budget and misses charge NAND reads
	// through the ops path, so figures shift accordingly. 0 keeps the
	// whole map resident — the legacy model, byte-identical results.
	// Runs are seed-reproducible at any budget.
	MapCacheBytes int64
}

func (o Options) withDefaults() Options {
	if o.Ops == 0 {
		o.Ops = 240
	}
	if len(o.WaysList) == 0 {
		o.WaysList = []int{2, 4, 8}
	}
	if o.Blocks == 0 {
		o.Blocks = 64
	}
	return o
}

// shrink reduces a preset's block count for throughput experiments.
func shrink(p nand.Params, blocks int) nand.Params {
	p.Geometry.BlocksPerLUN = blocks
	return p
}

// shrunkHynix is the Hynix package cut down for the experiments beyond
// the paper (chaos soak, map-cache ablation, tenant workloads), which
// need pressure, not capacity: one plane of blocksPerLUN × pagesPerBlk
// 512-byte pages, short fixed array times, and jitter and raw bit
// errors off so every divergence in a run is the experiment's doing.
func shrunkHynix(blocksPerLUN, pagesPerBlk int) nand.Params {
	p := nand.Hynix()
	p.Geometry.Planes = 1
	p.Geometry.BlocksPerLUN = blocksPerLUN
	p.Geometry.PagesPerBlk = pagesPerBlk
	p.Geometry.PageBytes = 512
	p.Geometry.SpareBytes = 64
	p.TR = 20 * sim.Microsecond
	p.TPROG = 50 * sim.Microsecond
	p.TBERS = 200 * sim.Microsecond
	p.JitterPct = 0
	p.RawBitErrorPer512B = 0
	return p
}

// build assembles one rig of an experiment: base is the experiment's
// own configuration, and the rig-wide options every experiment shares
// are laid over it here, the one place that knows them.
func (o Options) build(base ssd.BuildConfig, tracer obs.Tracer) (*ssd.Rig, error) {
	base.Tracer = tracer
	base.NoCoroPool = o.NoCoroPool
	base.MapCacheBytes = o.MapCacheBytes
	return ssd.Build(base)
}

// readThroughput builds an SSD per cfg, preloads a working set, runs
// opt.Ops reads, and reports bandwidth in MB/s.
func readThroughput(opt Options, cfg ssd.BuildConfig, tracer obs.Tracer, pattern hic.Pattern, queueDepth int) (float64, error) {
	rig, err := opt.build(cfg, tracer)
	if err != nil {
		return 0, err
	}
	defer rig.Close()

	// Working set: enough pages that sequential reads touch every LUN
	// continuously, small enough to preload instantly.
	working := 32 * cfg.Ways
	if working > rig.FTL.LogicalPages() {
		working = rig.FTL.LogicalPages()
	}
	if err := rig.SSD.Preload(working); err != nil {
		return 0, err
	}
	res, err := runClean(rig, hic.Workload{
		Pattern: pattern, Kind: hic.KindRead,
		NumOps: opt.Ops, QueueDepth: queueDepth, LogicalPages: working, Seed: 7,
	})
	if err != nil {
		return 0, err
	}
	return res.BandwidthMBps(cfg.Params.Geometry.PageBytes), nil
}

// runClean drives w on rig through hic.Run until the rig is quiescent,
// and fails unless every command completed without error.
func runClean(rig *ssd.Rig, w hic.Workload) (*hic.Result, error) {
	res, err := hic.Run(rig.Kernel, rig.SSD, w)
	if err != nil {
		return nil, err
	}
	rig.Run()
	if res.Completed != w.NumOps || res.Failed != 0 {
		return nil, fmt.Errorf("exp: %d of %d ops completed, %d failed", res.Completed, w.NumOps, res.Failed)
	}
	return res, nil
}

// channelCeilingMBps is the ideal data-only channel bandwidth at a given
// rate, used for context lines in reports.
func channelCeilingMBps(rateMT int) float64 {
	return float64(rateMT) // 1 byte per transfer: N MT/s = N MB/s
}

// table renders rows with a header, aligning columns on tabs.
func table(header string, rows []string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len(header)))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// pct formats a relative difference versus a baseline.
func pct(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (v-base)/base*100)
}

// us formats a duration in microseconds.
func us(d sim.Duration) string {
	return fmt.Sprintf("%.1fus", d.Micros())
}
