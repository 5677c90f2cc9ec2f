// Package exp contains the experiment harness: one entry point per table
// and figure of the paper's evaluation (Section VI). Each experiment
// builds the necessary rigs, runs the workload in virtual time, and
// returns both structured results and a rendered text table whose rows
// match what the paper reports.
package exp

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Options tune experiment scale and plumbing. Zero values select the
// full-fidelity defaults; tests use reduced op counts to stay fast. The
// swept axes are the paper's and fixed per figure (fig10LUNs,
// fig12Ways, fig10CPUs, splitCPUs): only Ops and Blocks scale a run.
type Options struct {
	// Ops is the number of host operations per measured configuration.
	Ops int
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
	// MapCacheBytes bounds the DRAM budget of every rig's FTL
	// translation map (ssd.BuildConfig.MapCacheBytes): map pages are
	// demand-paged under the budget and misses charge NAND reads
	// through the ops path, so figures shift accordingly. 0 keeps the
	// whole map resident — the legacy model, byte-identical results.
	// Runs are seed-reproducible at any budget.
	MapCacheBytes int64
	// noCoroPool builds every rig without its per-rig coroutine pool
	// (fresh goroutine per operation). Results and traces are identical
	// either way — TestCoroPoolDeterminism holds the two paths byte-for-
	// byte equal — so this exists for that comparison, not for normal use.
	noCoroPool bool
}

func (o Options) withDefaults() Options {
	if o.Ops == 0 {
		o.Ops = 240
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

// readThroughput runs opt.Ops reads of pattern at queueDepth on the rig
// cfg describes and reports bandwidth in MB/s. The working set is enough
// pages that sequential reads touch every LUN continuously, small enough
// to preload instantly.
func readThroughput(opt Options, cfg ssd.BuildConfig, tracer obs.Tracer, pattern hic.Pattern, queueDepth int) (float64, error) {
	res, _, err := runClean(opt, cfg, tracer, hic.Workload{
		Pattern: pattern, Kind: hic.KindRead,
		NumOps: opt.Ops, QueueDepth: queueDepth, LogicalPages: 32 * cfg.Ways, Seed: 7,
	}, nil)
	if err != nil {
		return 0, err
	}
	return res.BandwidthMBps(cfg.Params.Geometry.PageBytes), nil
}

// channelCeilingMBps is the ideal data-only channel bandwidth at a given
// rate, used for context lines in reports.
func channelCeilingMBps(rateMT int) float64 {
	return float64(rateMT) // 1 byte per transfer: N MT/s = N MB/s
}

// table renders rows under a header (a title, then any column headings
// on further lines) and a rule as wide as the widest header line, in
// runes.
func table(header string, rows []string) string {
	width := 0
	for _, line := range strings.Split(header, "\n") {
		width = max(width, utf8.RuneCountInString(line))
	}
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// runEnd returns the end of the run of xs that starts at i and whose
// elements are all same as xs[i]. Renderers walk points in the order
// their producer emits them and start a panel or a row where a run ends.
func runEnd[T any](xs []T, i int, same func(a, b T) bool) int {
	j := i + 1
	for j < len(xs) && same(xs[i], xs[j]) {
		j++
	}
	return j
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
