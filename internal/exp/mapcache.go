package exp

import (
	"fmt"

	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Map-cache ablation: random reads against a working set several times
// larger than the translation-cache budget, swept across budgets from
// "disabled" (whole map resident — the legacy model) to "covers the
// working set". Each miss charges a real NAND read of the map page
// through the ordinary ops path, so the sweep shows the bandwidth a
// DRAM-starved drive pays for demand-paged translations — FMMU's
// trade-off, measured end to end rather than asserted from counters.

// MapCachePoint is one budget's row: end-to-end random-read bandwidth
// plus the cache counters that explain it.
type MapCachePoint struct {
	BudgetBytes int64 // 0 = cache disabled
	MBps        float64
	HitRate     float64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Flushes     uint64
}

// mapCacheWays is the channel width of the ablation rig.
const mapCacheWays = 4

// DefaultMapCacheBudgets is the swept budget ladder: disabled, then 4
// to 64 translation pages' worth of DRAM (at the ablation geometry's
// 512-byte map pages). The working set spans 32 map pages concentrated
// in half the cache partitions (one per chip), and the budget splits
// evenly across partitions, so the ladder runs from 8x-oversubscribed
// on the hot partitions to fully resident at the top rung.
func DefaultMapCacheBudgets() []int64 {
	return []int64{0, 4 * 512, 8 * 512, 16 * 512, 32 * 512, 64 * 512}
}

// MapCache sweeps translation-cache budgets and reports bandwidth and
// cache behavior per budget. budgets nil picks
// DefaultMapCacheBudgets(). Runs are seed-reproducible: the workload
// seed, preload, and clock eviction are all deterministic, so a budget
// always produces the same counters and the same trace.
func MapCache(opt Options, budgets []int64) ([]MapCachePoint, error) {
	opt = opt.withDefaults()
	if budgets == nil {
		budgets = DefaultMapCacheBudgets()
	}
	return sweep(opt, budgets, opt.mapCacheRun)
}

func (opt Options) mapCacheRun(budget int64, tracer obs.Tracer) (MapCachePoint, error) {
	opt.MapCacheBytes = budget // the swept variable overrides the rig-wide flag
	// The sweep needs eviction pressure, not capacity. 512-byte pages
	// make a translation page 64 L2P entries, so a few-KB budget holds a
	// few map pages and a 2048-page working set spans 32 — misses and
	// clock evictions happen at figure-scale op counts instead of
	// needing a TB-class preload.
	params := shrunkHynix(64, 16)
	// 2048 pages = 32 translation pages at this geometry: far past every
	// non-degenerate budget in the default ladder, so random reads keep
	// the clock under pressure. (Preload seeds the backing map directly —
	// cache bypasses, not misses — exactly like firmware rebuilding its
	// map from a journal at mount.)
	res, rig, err := runClean(opt, ssd.BuildConfig{
		Params: params, Ways: mapCacheWays, RateMT: 200,
		Controller: ssd.CtrlBabolCoro, CPUMHz: 1000,
	}, tracer, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: opt.Ops, QueueDepth: 8, LogicalPages: 2048, Seed: 7,
	}, nil)
	if err != nil {
		return MapCachePoint{}, fmt.Errorf("mapcache budget %dB: %w", budget, err)
	}
	cs := rig.FTL.CacheStats()
	return MapCachePoint{
		BudgetBytes: budget,
		MBps:        res.BandwidthMBps(params.Geometry.PageBytes),
		HitRate:     cs.HitRate(),
		Hits:        cs.Hits,
		Misses:      cs.Misses,
		Evictions:   cs.Evictions,
		Flushes:     cs.Flushes,
	}, nil
}

// MapCacheCSV renders the sweep as machine-readable CSV.
func MapCacheCSV(points []MapCachePoint) string {
	out := "budget_bytes,mbps,hit_rate,hits,misses,evictions,flushes\n"
	for _, p := range points {
		out += fmt.Sprintf("%d,%.2f,%.4f,%d,%d,%d,%d\n",
			p.BudgetBytes, p.MBps, p.HitRate, p.Hits, p.Misses, p.Evictions, p.Flushes)
	}
	return out
}

// RenderMapCache formats the sweep with deltas versus the disabled
// (whole-map-resident) baseline when the ladder includes one.
func RenderMapCache(points []MapCachePoint) string {
	baseline := 0.0
	for _, p := range points {
		if p.BudgetBytes == 0 {
			baseline = p.MBps
		}
	}
	header := fmt.Sprintf("%-12s %10s %8s %10s %10s %10s %8s", "budget", "MB/s", "Δ", "hit-rate", "misses", "evictions", "flushes")
	var rows []string
	for _, p := range points {
		budget := "resident"
		if p.BudgetBytes > 0 {
			budget = fmt.Sprintf("%dB", p.BudgetBytes)
		}
		delta := "—"
		if baseline > 0 && p.BudgetBytes > 0 {
			delta = pct(p.MBps, baseline)
		}
		hitRate := "—"
		if p.BudgetBytes > 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*p.HitRate)
		}
		rows = append(rows, fmt.Sprintf("%-12s %10.1f %8s %10s %10d %10d %8d",
			budget, p.MBps, delta, hitRate, p.Misses, p.Evictions, p.Flushes))
	}
	return table("Map cache: random READ bandwidth vs translation-DRAM budget, 4-way shrunk Hynix\n"+header, rows)
}
