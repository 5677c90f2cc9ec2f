package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDecl declares one metric of the ledger. name, unit and better
// (and bound, for end-to-end metrics) are what BENCHMARK.json carries;
// clock and moves are the documentation the README tables print.
type metricDecl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	clock  string  // "host", "virtual", "count" or "ratio"
	moves  string  // per-layer only: the end-to-end metric and workload it should move
	// only, on a per-layer ratio, names the workload property without
	// which its denominator is 0 ("cluster", "frontend", "mapcache"). The
	// metric is reported on the workloads that have the property and is
	// absent — not 0 — on the others, so it is not in BENCHMARK.json,
	// whose metrics every workload reports; the counts it is made of are.
	only string
}

// Units of virtual-time metrics carry the clock (virt_us, virt_MB/s):
// modeled and host time never share a unit, let alone a number.
//
// A bound is three times the widest ten-seed spread (interquartile range
// over median, the contract's measure) seen on any workload, rounded up,
// and at most the contract's 0.25; README.md has the spreads. With the
// seed fixed the count and virtual metrics repeat exactly, whatever
// their bound.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, clock: "host"},
	{name: "sim_hostops_per_s", unit: "1/s", better: "higher", bound: 0.25, clock: "host"},
	{name: "events_per_hostop", unit: "count", better: "lower", bound: 0.04, clock: "count"},
	{name: "allocs_per_hostop", unit: "count", better: "lower", bound: 0.05, clock: "count"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20, clock: "host"},
	{name: "model_mbps", unit: "virt_MB/s", better: "higher", bound: 0.03, clock: "virtual"},
	{name: "model_lat_p50_us", unit: "virt_us", better: "lower", bound: 0.05, clock: "virtual"},
	{name: "model_lat_p999_us", unit: "virt_us", better: "lower", bound: 0.25, clock: "virtual"},
	{name: "model_vs_hw_pct", unit: "%", better: "higher", bound: 0.015, clock: "virtual"},
}

const (
	onChan    = "sim_hostops_per_s, events_per_hostop on chan_read_1x8"
	onReads   = "sim_hostops_per_s on chan_read_1x8, drive_read_8x8"
	onCluster = "sim_hostops_per_s on drive_read_8x8_cluster only"
	onModel   = "model_mbps, model_vs_hw_pct on all"
	onTenants = "model_mbps, model_lat_p999_us, allocs_per_hostop on tenants_mixed_2x4 (flat on read rows)"
	onSSD     = "sim_hostops_per_s, allocs_per_hostop on tenants_mixed_2x4, drive_read_8x8"
	onHIC     = "model_lat_p999_us on tenants_mixed_2x4 only (hic.Run bypasses the frontend)"
	onTraced  = "sim_hostops_per_s, allocs_per_hostop, peak_rss_mb on traced_read_1x8 only"
	onTwin    = "denominator of model_vs_hw_pct"
	diag      = "diagnostic; moves nothing"
	estimate  = "estimate from outside: ladder unit cost x in-run count / host time"
)

var perLayer = []metricDecl{
	{name: "sim.events", unit: "count", better: "lower", clock: "count", moves: onReads},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", clock: "host", moves: onReads},
	{name: "sim.rtf", unit: "virt_s/s", better: "higher", clock: "ratio", moves: "virtual s per host s; continuity with BENCH_6-9"},
	{name: "sim.unit_event_ns", unit: "ns", better: "lower", clock: "host", moves: onReads},
	{name: "sim.windows", unit: "count", better: "lower", clock: "count", moves: onCluster},
	{name: "sim.posts", unit: "count", better: "lower", clock: "count", moves: onCluster},
	{name: "sim.shard_exec_ms", unit: "ms", better: "lower", clock: "host", moves: onCluster},
	{name: "sim.shard_barrier_ms", unit: "ms", better: "lower", clock: "host", moves: onCluster},
	{name: "sim.events_per_window", unit: "count", better: "higher", clock: "count", moves: onCluster, only: "cluster"},
	{name: "sim.barrier_share", unit: "ratio", better: "lower", clock: "host", moves: onCluster, only: "cluster"},
	{name: "sim.shard_imbalance", unit: "ratio", better: "lower", clock: "count", moves: onCluster, only: "cluster"},
	{name: "sim.unit_window_ns", unit: "ns", better: "lower", clock: "host", moves: onCluster},
	{name: "sim.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},

	{name: "coro.spawned", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "coro.unit_resume_ns", unit: "ns", better: "lower", clock: "host", moves: onChan},
	{name: "coro.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},

	{name: "core.ops", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "core.txns_per_op", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "core.resumes_per_op", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "core.admission_waits", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "core.poll_resubmits", unit: "count", better: "lower", clock: "count", moves: onChan},
	{name: "core.queue_wait_share", unit: "ratio", better: "lower", clock: "virtual", moves: onModel},
	{name: "ufsm.instrs_per_txn", unit: "count", better: "lower", clock: "count", moves: onChan},

	{name: "bus.busy_share", unit: "ratio", better: "higher", clock: "virtual", moves: onModel},
	{name: "bus.bytes_per_hostop", unit: "B", better: "lower", clock: "count", moves: onModel},
	{name: "bus.channel_share", unit: "ratio", better: "higher", clock: "virtual", moves: onModel},
	{name: "cpumodel.software_share", unit: "ratio", better: "lower", clock: "virtual", moves: onModel},
	{name: "cpumodel.firmware_share", unit: "ratio", better: "lower", clock: "virtual", moves: onModel + " (where BABOL loses to HW)"},

	{name: "nand.reads", unit: "count", better: "lower", clock: "count", moves: "events_per_hostop, model_lat_p50_us on all"},
	{name: "nand.programs", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "nand.erases", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "nand.status_reads_per_op", unit: "count", better: "lower", clock: "count", moves: "events_per_hostop, model_lat_p50_us on all"},
	{name: "nand.protocol_errors", unit: "count", better: "lower", clock: "count", moves: "must be 0"},
	{name: "nand.cell_share", unit: "ratio", better: "lower", clock: "virtual", moves: onModel},
	{name: "nand.unit_read_ns", unit: "ns", better: "lower", clock: "host", moves: onReads},
	{name: "nand.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},

	{name: "ftl.host_writes", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.flash_writes", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.waf", unit: "ratio", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.gc_moves", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.gc_erases", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.map_hits", unit: "count", better: "higher", clock: "count", moves: onTenants},
	{name: "ftl.map_hit_rate", unit: "ratio", better: "higher", clock: "count", moves: onTenants, only: "mapcache"},
	{name: "ftl.map_misses", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.map_evictions", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.map_flushes", unit: "count", better: "lower", clock: "count", moves: onTenants},
	{name: "ftl.unit_lookup_ns", unit: "ns", better: "lower", clock: "host", moves: onTenants},
	{name: "ftl.unit_allocate_ns", unit: "ns", better: "lower", clock: "host", moves: onTenants},
	{name: "ftl.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},

	{name: "ssd.host_reads", unit: "count", better: "lower", clock: "count", moves: onSSD},
	{name: "ssd.host_writes", unit: "count", better: "lower", clock: "count", moves: onSSD},
	{name: "ssd.host_trims", unit: "count", better: "lower", clock: "count", moves: onSSD},
	{name: "ssd.gc_cycles", unit: "count", better: "lower", clock: "count", moves: onSSD},
	{name: "ssd.recovered_ops", unit: "count", better: "lower", clock: "count", moves: onSSD},
	{name: "ssd.submit_sync_ns_per_op", unit: "ns", better: "lower", clock: "host", moves: onSSD},

	{name: "hic.enqueued", unit: "count", better: "lower", clock: "count", moves: onHIC},
	{name: "hic.dispatched", unit: "count", better: "lower", clock: "count", moves: onHIC},
	{name: "hic.failed", unit: "count", better: "lower", clock: "count", moves: onHIC},
	{name: "hic.fairness_jain", unit: "ratio", better: "higher", clock: "virtual", moves: onHIC, only: "frontend"},
	{name: "hic.tenant_p99_spread", unit: "ratio", better: "lower", clock: "virtual", moves: onHIC, only: "frontend"},
	{name: "hic.unit_frontend_ns", unit: "ns", better: "lower", clock: "host", moves: onHIC},
	{name: "hic.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},

	{name: "obs.events", unit: "count", better: "lower", clock: "count", moves: onTraced},
	{name: "obs.events_per_hostop", unit: "count", better: "lower", clock: "count", moves: onTraced},
	{name: "obs.trace_overhead_x", unit: "ratio", better: "lower", clock: "host", moves: onTraced},
	{name: "obs.emit_ns_per_event", unit: "ns", better: "lower", clock: "host", moves: onTraced},
	{name: "obs.unit_emit_ns", unit: "ns", better: "lower", clock: "host", moves: onTraced},
	{name: "obs.unit_jsonl_encode_ns", unit: "ns", better: "lower", clock: "host", moves: onTraced},
	{name: "obs.unit_jsonl_decode_ns", unit: "ns", better: "lower", clock: "host", moves: onTraced},
	{name: "obs.est_share", unit: "ratio", better: "lower", clock: "host", moves: estimate},
	{name: "analyze.ingest_kevents_per_s", unit: "kev/s", better: "higher", clock: "host", moves: onTraced},
	{name: "analyze.spans", unit: "count", better: "higher", clock: "count", moves: onTraced},
	{name: "analyze.violations", unit: "count", better: "lower", clock: "count", moves: "must be 0"},

	{name: "hwctrl.model_mbps", unit: "virt_MB/s", better: "higher", clock: "virtual", moves: onTwin},
	{name: "hwctrl.model_lat_p999_us", unit: "virt_us", better: "lower", clock: "virtual", moves: onTwin},
	{name: "hwctrl.sim_hostops_per_s", unit: "1/s", better: "higher", clock: "host", moves: onTwin},

	{name: "runtime.gc_cycles", unit: "count", better: "lower", clock: "count", moves: "sim_hostops_per_s, allocs_per_hostop on all"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", clock: "host", moves: "sim_hostops_per_s on all"},
	{name: "runtime.heap_bytes_per_hostop", unit: "B", better: "lower", clock: "count", moves: "allocs_per_hostop, peak_rss_mb on all"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower", clock: "count", moves: "peak_rss_mb on all"},
	{name: "runtime.machine_idx", unit: "Miter/s", better: "higher", clock: "host", moves: diag},
	{name: "runtime.procs_speed_x", unit: "ratio", better: "higher", clock: "host", moves: diag},
	{name: "unattributed_share", unit: "ratio", better: "lower", clock: "host", moves: "what core/ufsm/bus/ssd and the Go runtime keep until in-program spans land"},
}

// declsOn is the part of decls that is defined on w.
func declsOn(decls []metricDecl, w *workload) []metricDecl {
	var on []metricDecl
	for _, d := range decls {
		if d.only == "" || w.has(d.only) {
			on = append(on, d)
		}
	}
	return on
}

// summary is one metric's repetitions: median, quartiles and count.
type summary struct {
	median, q1, q3 float64
	n              int
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method, which
// extrapolates on tiny samples) — the rule the benchmark contract states
// its spreads in. A single sample has no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{median: median(v), q1: q1, q3: q3, n: len(v)}
}

// highestPercentile is the reporting rule for a latency tail: the
// highest percentile, among the decimal nines, that still has at least
// ten samples beyond it. 0 means even the median has not.
func highestPercentile(samples int) float64 {
	best := 0.0
	for _, c := range []struct {
		p    float64
		tail int // one sample in tail lies beyond p
	}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}, {99.999, 100000}} {
		if samples/c.tail >= 10 {
			best = c.p
		}
	}
	return best
}

// tailPercentile is the tail the ledger reports: the highest percentile
// the rule allows at the smallest workload (20 000 commands).
const tailPercentile = 99.9

// modelMBps is the modeled drive's bandwidth: pages that moved data
// (successful reads and writes — trims move none) at the rig's own page
// size, over the virtual time from first issue to last completion.
func modelMBps(pagesMoved, pageBytes int, virtualPs int64) float64 {
	return float64(pagesMoved) * float64(pageBytes) / 1e6 / (float64(virtualPs) / 1e12)
}

// ledger collects one workload's metrics against a declaration list and
// refuses anything that was not measured: a name outside the list, a
// second value for a name, an empty or non-finite sample, and — at
// close — a declared name that never got a value.
type ledger struct {
	decls []metricDecl
	vals  map[string]summary
	// flags marks a value that was measured but cannot mean what its
	// name says (a difference that came out negative, a budget that
	// overran); the table prints the reason beside the value.
	flags map[string]string
}

func newLedger(decls []metricDecl) *ledger {
	return &ledger{decls: decls, vals: map[string]summary{}, flags: map[string]string{}}
}

func (l *ledger) put(name string, samples ...float64) error {
	declared := false
	for _, d := range l.decls {
		declared = declared || d.name == name
	}
	switch {
	case !declared:
		return fmt.Errorf("metric %q is not declared", name)
	case len(samples) == 0:
		return fmt.Errorf("metric %q has no samples: refusing to emit a value that was not measured", name)
	}
	if _, dup := l.vals[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	for _, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q has a non-finite sample %v", name, v)
		}
	}
	l.vals[name] = summarize(samples)
	return nil
}

// close checks that every declared metric was measured.
func (l *ledger) close() error {
	for _, d := range l.decls {
		if _, ok := l.vals[d.name]; !ok {
			return fmt.Errorf("metric %q was not measured: refusing to emit the ledger", d.name)
		}
	}
	return nil
}

// runSeconds is BENCHMARK.json's run_seconds: how long one contract
// run measures end-to-end repetitions.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the declarations above, so
// the file the driver reads cannot drift from what the program prints.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		if d.only == "" {
			doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
		}
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n'), err
}
