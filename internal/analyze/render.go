package analyze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ganttSymbol maps an interval to its one-column glyph.
func ganttSymbol(iv Interval) byte {
	switch iv.Label {
	case "cmd-addr":
		return 'C'
	case "data-read":
		return 'R'
	case "data-write":
		return 'W'
	case "timer-wait":
		return 't'
	case "txn":
		return 'x'
	default:
		return '#'
	}
}

// Gantt renders the timeline as ASCII art, one bus lane per chip, width
// columns wide:
//
//	ch0 chip0 bus |CC.RRRR......CC|
//
// C=cmd/addr R=data-read W=data-write t=timer-wait x=txn;
// '*' marks a column where two intervals of the same lane collide —
// legitimate when the scale crushes adjacent bursts together, but on an
// uncrushed scale a '*' in a bus lane is an exclusivity violation made
// visible.
func (t *Timeline) Gantt(width int) string {
	if width < 8 {
		width = 8
	}
	span := t.Last.Sub(t.First)
	if span <= 0 || len(t.Intervals) == 0 {
		return "(empty timeline)\n"
	}
	col := func(at sim.Time) int {
		c := int(int64(at.Sub(t.First)) * int64(width) / int64(span))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	lanes := map[int][]byte{}
	for _, iv := range t.Intervals {
		lane := lanes[iv.Chip]
		if lane == nil {
			lane = []byte(strings.Repeat(".", width))
		}
		sym := ganttSymbol(iv)
		lo, hi := col(iv.Start), col(iv.End)
		if hi < lo {
			hi = lo
		}
		for c := lo; c <= hi; c++ {
			switch lane[c] {
			case '.':
				lane[c] = sym
			case sym:
			default:
				lane[c] = '*'
			}
		}
		lanes[iv.Chip] = lane
	}
	chips := make([]int, 0, len(lanes))
	for c := range lanes {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	var b strings.Builder
	fmt.Fprintf(&b, "span %v..%v (%v), 1 col = %v\n", t.First, t.Last, span, span/sim.Duration(width))
	for _, c := range chips {
		fmt.Fprintf(&b, "ch%d chip%-2d bus |%s|\n", t.Channel, c, lanes[c])
	}
	return b.String()
}

// SpansCSV renders the per-operation breakdown as CSV, one row per
// span, in the order Analyze produced them.
func SpansCSV(spans []Span) string {
	var b strings.Builder
	b.WriteString("run_op,channel,chip,slot,submitted_ps,admitted_ps,finished_ps," +
		"latency_ps,queue_wait_ps,channel_ps,cell_ps,firmware_ps," +
		"txns,polls,resumes,waits,complete,err\n")
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(&b, "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%t\n",
			s.OpID, s.Channel, s.Chip, s.Slot,
			s.Submitted, s.Admitted, s.Finished,
			s.Latency, s.QueueWait(), s.ChannelTime, s.CellTime(), s.FirmwareTime,
			len(s.Txns), s.Polls, s.Resumes, s.Waits, s.Complete, s.Err)
	}
	return b.String()
}

// ComponentsCSV renders the component distributions as CSV, one row per
// breakdown component.
func ComponentsCSV(c Components) string {
	var b strings.Builder
	b.WriteString("component,count,mean_ps,p50_ps,p90_ps,p99_ps,min_ps,max_ps\n")
	row := func(name string, s LatencySummary) {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d\n",
			name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Min, s.Max)
	}
	row("latency", c.Latency)
	row("queue_wait", c.QueueWait)
	row("channel_time", c.ChannelTime)
	row("cell_time", c.CellTime)
	row("firmware_time", c.Firmware)
	return b.String()
}

// CSV renders the full analysis in CSV form: the component summary,
// then per-run channel occupancy, then every span. Sections are
// separated by blank lines so the output stays one file but each block
// parses independently.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(ComponentsCSV(r.Components))
	b.WriteString("\nrun,channel,span_ps,busy_ps,idle_ps,utilization,idle_gaps,longest_idle_ps,violations\n")
	for i := range r.Runs {
		run := &r.Runs[i]
		for _, ch := range run.Channels() {
			o := run.Timelines[ch].Occupancy()
			fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%.4f,%d,%d,%d\n",
				run.Index, ch, o.Span, o.Busy, o.Idle, o.Utilization(),
				o.IdleGaps, o.LongestIdle, len(run.Violations))
		}
	}
	if r.Metrics.Faults > 0 || r.Metrics.Recoveries > 0 {
		b.WriteString("\nkind,label,count\n")
		for _, l := range sortedLabels(r.Metrics.FaultsByLabel) {
			fmt.Fprintf(&b, "fault,%s,%d\n", l, r.Metrics.FaultsByLabel[l])
		}
		for _, l := range sortedLabels(r.Metrics.RecoveriesByLabel) {
			fmt.Fprintf(&b, "recovery,%s,%d\n", l, r.Metrics.RecoveriesByLabel[l])
		}
	}
	if r.Metrics.MapCacheActive() {
		b.WriteString("\nrun,map_hits,map_misses,map_hit_rate,map_evictions,map_flushes\n")
		fmt.Fprintf(&b, "all,%d,%d,%.4f,%d,%d\n",
			r.Metrics.MapHits, r.Metrics.MapMisses, r.Metrics.MapHitRate(),
			r.Metrics.MapEvictions, r.Metrics.MapFlushes)
		for i := range r.Runs {
			m := &r.Runs[i].Metrics
			if !m.MapCacheActive() {
				continue
			}
			fmt.Fprintf(&b, "%d,%d,%d,%.4f,%d,%d\n",
				r.Runs[i].Index, m.MapHits, m.MapMisses, m.MapHitRate(),
				m.MapEvictions, m.MapFlushes)
		}
	}
	if tenants := TenantCSV(r.Runs); tenants != "" {
		b.WriteString("\n")
		b.WriteString(tenants)
	}
	b.WriteString("\n")
	b.WriteString(SpansCSV(r.Spans))
	return b.String()
}

func sortedLabels(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// labelCounts renders "total (label=n label=n ...)" with labels sorted.
func labelCounts(total uint64, by map[string]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", total)
	if len(by) > 0 {
		b.WriteString(" (")
		for i, l := range sortedLabels(by) {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", l, by[l])
		}
		b.WriteString(")")
	}
	return b.String()
}

func fmtSummary(name string, s LatencySummary) string {
	return fmt.Sprintf("  %-14s n=%-5d mean=%-10s p50=%-10s p90=%-10s p99=%-10s max=%s",
		name, s.Count, us(s.Mean), us(s.P50), us(s.P90), us(s.P99), us(s.Max))
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fus", d.Micros()) }

// Render formats the analysis as the analyzer report: per-op latency
// breakdown percentiles, per-run channel occupancy, the Gantt of the
// first run, and any protocol violations.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "logic analyzer report: %d run(s), %d op span(s), %d event(s)\n",
		len(r.Runs), len(r.Spans), r.Metrics.Events)
	b.WriteString("\nper-op latency breakdown (all runs):\n")
	b.WriteString(fmtSummary("latency", r.Components.Latency) + "\n")
	b.WriteString(fmtSummary("queue-wait", r.Components.QueueWait) + "\n")
	b.WriteString(fmtSummary("channel", r.Components.ChannelTime) + "\n")
	b.WriteString(fmtSummary("cell", r.Components.CellTime) + "\n")
	b.WriteString(fmtSummary("firmware", r.Components.Firmware) + "\n")

	b.WriteString("\nchannel occupancy per run:\n")
	for i := range r.Runs {
		run := &r.Runs[i]
		sw, hw := run.Metrics.SoftwareTime, run.Metrics.HardwareTime
		for _, ch := range run.Channels() {
			o := run.Timelines[ch].Occupancy()
			fmt.Fprintf(&b, "  run %-3d ch%-2d busy=%-10s idle=%-10s util=%-5.1f%% gaps=%-4d sw=%-10s hw=%s\n",
				run.Index, ch, us(o.Busy), us(o.Idle), 100*o.Utilization(),
				o.IdleGaps, us(sw), us(hw))
		}
		if run.Incomplete > 0 {
			fmt.Fprintf(&b, "  run %-3d %d incomplete span(s) (truncated trace?)\n", run.Index, run.Incomplete)
		}
	}

	// Fault-injection traces carry recovery forensics; quiet traces
	// render exactly as before (the section is absent, keeping the
	// checked-in goldens stable).
	if r.Metrics.Faults > 0 || r.Metrics.Recoveries > 0 {
		b.WriteString("\nfault injection & recovery (all runs):\n")
		b.WriteString("  faults:     " + labelCounts(r.Metrics.Faults, r.Metrics.FaultsByLabel) + "\n")
		b.WriteString("  recoveries: " + labelCounts(r.Metrics.Recoveries, r.Metrics.RecoveriesByLabel) + "\n")
		for i := range r.Runs {
			run := &r.Runs[i]
			if run.Metrics.Faults == 0 && run.Metrics.Recoveries == 0 {
				continue
			}
			keys := make([]obs.ChipKey, 0, len(run.Metrics.Chips))
			for k := range run.Metrics.Chips {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a].Channel != keys[b].Channel {
					return keys[a].Channel < keys[b].Channel
				}
				return keys[a].Chip < keys[b].Chip
			})
			for _, k := range keys {
				c := run.Metrics.Chips[k]
				if c.Faults == 0 && c.Recoveries == 0 {
					continue
				}
				fmt.Fprintf(&b, "  run %-3d ch%d chip%d: faults=%d recoveries=%d\n",
					run.Index, k.Channel, k.Chip, c.Faults, c.Recoveries)
			}
		}
	}

	// Traces from map-cache-enabled runs carry translation-paging
	// events; cache-disabled traces render exactly as before (section
	// absent, goldens stable).
	if r.Metrics.MapCacheActive() {
		b.WriteString("\nftl map cache (all runs):\n")
		fmt.Fprintf(&b, "  translations: hits=%d misses=%d hit-rate=%.1f%%\n",
			r.Metrics.MapHits, r.Metrics.MapMisses, 100*r.Metrics.MapHitRate())
		fmt.Fprintf(&b, "  paging:       evictions=%d flushes=%d\n",
			r.Metrics.MapEvictions, r.Metrics.MapFlushes)
		for i := range r.Runs {
			m := &r.Runs[i].Metrics
			if !m.MapCacheActive() {
				continue
			}
			fmt.Fprintf(&b, "  run %-3d hits=%-8d misses=%-8d hit-rate=%-5.1f%% evictions=%-6d flushes=%d\n",
				r.Runs[i].Index, m.MapHits, m.MapMisses, 100*m.MapHitRate(),
				m.MapEvictions, m.MapFlushes)
		}
	}

	// Host-frontend traces carry per-command tenant events; traces
	// without them render exactly as before (section absent, goldens
	// stable).
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Tenants != nil {
			b.WriteString(renderTenantReport(run.Index, run.Tenants))
		}
	}

	if len(r.Runs) > 0 {
		first := &r.Runs[0]
		for _, ch := range first.Channels() {
			fmt.Fprintf(&b, "\nrun 0 ch%d timeline:\n%s", ch, first.Timelines[ch].Gantt(72))
		}
	}

	if len(r.Violations) == 0 {
		b.WriteString("\nprotocol violations: none\n")
	} else {
		fmt.Fprintf(&b, "\nprotocol violations: %d\n", len(r.Violations))
		for _, v := range r.Violations {
			b.WriteString("  " + v.String() + "\n")
		}
	}
	return b.String()
}
