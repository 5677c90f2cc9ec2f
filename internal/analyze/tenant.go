package analyze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Per-tenant QoS report: a trace from the workload engine (or a trace
// replay) carries one obs.KindHostCmd event per host command. The
// run's obs.Snapshot.Tenants already holds each tenant's counts and
// queue; the report adds exact latency percentiles, throughput and a
// fairness summary — the Copycat-style per-tenant view the aggregate
// bandwidth figures hide. Traces without host-cmd events produce no
// report, keeping pre-frontend goldens byte-identical.

// TenantRow is one tenant's aggregate over a run.
type TenantRow struct {
	Name string
	// TenantMetrics is the tenant's counts, queue and latency histogram
	// from the run's obs.Snapshot.
	obs.TenantMetrics
	// Summary is the exact nearest-rank summary of the successful
	// commands' enqueue→completion latency (failures excluded, per the
	// hic.Result contract).
	Summary LatencySummary
	// IOPS is completions per second of the report span.
	IOPS float64
}

// TenantReport is the per-run tenant QoS view.
type TenantReport struct {
	// Rows is sorted by tenant name for stable rendering.
	Rows []TenantRow
	// Span covers first..last host-cmd event of the run.
	Span sim.Duration
	// Fairness is Jain's index over per-tenant completion counts:
	// (Σx)²/(n·Σx²) — 1.0 when every tenant got equal service, 1/n when
	// one tenant got everything.
	Fairness float64
}

// TenantReportFromEvents builds the report for one run from its
// snapshot's tenants and its raw events, which it scans only for the
// exact latency samples and the span. It returns nil when the run
// carried no host-cmd events.
func TenantReportFromEvents(events []obs.Event, tenants map[string]obs.TenantMetrics) *TenantReport {
	if len(tenants) == 0 {
		return nil
	}
	var first, last sim.Time
	seen := false
	lats := map[string][]sim.Duration{}
	for i := range events {
		e := &events[i]
		if e.Kind != obs.KindHostCmd {
			continue
		}
		if !seen || e.Time < first {
			first = e.Time
		}
		if !seen || e.Time > last {
			last = e.Time
		}
		seen = true
		if !e.Err {
			lats[e.Label] = append(lats[e.Label], e.Dur)
		}
	}
	rep := &TenantReport{Span: last.Sub(first)}
	names := make([]string, 0, len(tenants))
	for n := range tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum, sumSq float64
	for _, n := range names {
		row := TenantRow{Name: n, TenantMetrics: tenants[n], Summary: Summarize(lats[n])}
		if secs := rep.Span.Seconds(); secs > 0 {
			row.IOPS = float64(row.Completed) / secs
		}
		sum += float64(row.Completed)
		sumSq += float64(row.Completed) * float64(row.Completed)
		rep.Rows = append(rep.Rows, row)
	}
	if sumSq > 0 {
		rep.Fairness = sum * sum / (float64(len(rep.Rows)) * sumSq)
	}
	return rep
}

// renderTenantReport formats one run's tenant QoS view.
func renderTenantReport(runIndex int, t *TenantReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\ntenant QoS (run %d): %d tenant(s) span=%s fairness=%.3f\n",
		runIndex, len(t.Rows), us(t.Span), t.Fairness)
	for _, row := range t.Rows {
		name := row.Name
		if name == "" {
			name = "(anonymous)"
		}
		fmt.Fprintf(&b, "  %-14s q%-2d done=%-6d failed=%-4d r/w/t=%d/%d/%d iops=%.0f\n",
			name, row.Queue, row.Completed, row.Failed,
			row.Reads, row.Writes, row.Trims, row.IOPS)
		b.WriteString(fmtSummary("  latency", row.Summary) + "\n")
	}
	return b.String()
}

// TenantCSV renders every run's tenant report as a CSV section (empty
// string when no run has one).
func TenantCSV(runs []Run) string {
	any := false
	for i := range runs {
		if runs[i].Tenants != nil {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("run,tenant,queue,completed,failed,reads,writes,trims,iops," +
		"mean_ps,p50_ps,p90_ps,p99_ps,max_ps,fairness\n")
	for i := range runs {
		t := runs[i].Tenants
		if t == nil {
			continue
		}
		for _, row := range t.Rows {
			l := row.Summary
			fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%.4f\n",
				runs[i].Index, row.Name, row.Queue, row.Completed, row.Failed,
				row.Reads, row.Writes, row.Trims, row.IOPS,
				l.Mean, l.P50, l.P90, l.P99, l.Max, t.Fairness)
		}
	}
	return b.String()
}
