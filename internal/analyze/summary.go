package analyze

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// LatencySummary is the distribution of one span component across a set
// of operations.
type LatencySummary struct {
	Count               int
	Mean, P50, P90, P99 sim.Duration
	Min, Max            sim.Duration
}

// Summarize computes a nearest-rank percentile summary. The input need
// not be sorted; a copy is sorted internally.
func Summarize(samples []sim.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := make([]sim.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return LatencySummary{
		Count: len(sorted),
		Mean:  sim.Mean(sorted),
		P50:   sim.Percentile(sorted, 50),
		P90:   sim.Percentile(sorted, 90),
		P99:   sim.Percentile(sorted, 99),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
	}
}

// Components is the per-operation latency breakdown summarized across
// all complete spans: where each op's wall-clock went, as
// distributions. The four components sum to Latency per op (CellTime is
// the clamped residual absorbing the small queue-wait/firmware overlap,
// and FirmwareTime omits unattributable scheduling-pass charges).
type Components struct {
	Latency     LatencySummary
	QueueWait   LatencySummary
	ChannelTime LatencySummary
	CellTime    LatencySummary
	Firmware    LatencySummary
}

// SummarizeSpans computes the component distributions over the complete
// spans in the slice.
func SummarizeSpans(spans []Span) Components {
	var lat, qw, ch, cell, fw []sim.Duration
	for i := range spans {
		s := &spans[i]
		if !s.Complete {
			continue
		}
		lat = append(lat, s.Latency)
		qw = append(qw, s.QueueWait())
		ch = append(ch, s.ChannelTime)
		cell = append(cell, s.CellTime())
		fw = append(fw, s.FirmwareTime)
	}
	return Components{
		Latency:     Summarize(lat),
		QueueWait:   Summarize(qw),
		ChannelTime: Summarize(ch),
		CellTime:    Summarize(cell),
		Firmware:    Summarize(fw),
	}
}

// Run is the analysis of one rig's contiguous event stream.
type Run struct {
	// Index is the run's position in the trace (configuration order for
	// sweep traces).
	Index int
	Spans []Span
	// Incomplete counts spans without an observed completion.
	Incomplete int
	// Metrics is the stream replayed through the standard registry, so
	// every Table II aggregate (software/hardware time, poll counts,
	// queue depths) is available per run.
	Metrics obs.Snapshot
	// Timelines holds the per-channel reconstructions, keyed by channel
	// index.
	Timelines map[int]*Timeline
	// Violations is the protocol sanity pass over every timeline.
	Violations []Violation
	// Tenants is the per-tenant QoS report for traces from the host
	// frontend's workload engine or trace replay (nil when the run
	// carries no host-cmd events).
	Tenants *TenantReport
}

// Channels returns the run's channel indices in order.
func (r *Run) Channels() []int {
	out := make([]int, 0, len(r.Timelines))
	for c := range r.Timelines {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Result is a full trace analysis: per-run detail plus cross-run
// roll-ups.
type Result struct {
	Runs []Run
	// Spans concatenates every run's spans.
	Spans []Span
	// Components summarizes the per-op breakdown across all runs.
	Components Components
	// Metrics is the whole trace replayed through one registry.
	Metrics obs.Snapshot
	// Violations concatenates every run's violations.
	Violations []Violation
}

// Analyze reconstructs spans, timelines, and violations from a raw
// event stream — the engine behind `babolbench analyze trace.jsonl`.
// Merged multi-rig traces are split into runs first (SplitRuns), so op
// IDs and virtual clocks that restart per rig never alias.
func Analyze(events []obs.Event) *Result {
	whole := obs.NewMetrics()
	whole.Replay(events)
	res := &Result{Metrics: whole.Snapshot()}
	runs := SplitRuns(events)
	for i, run := range runs {
		r := Run{Index: i, Timelines: map[int]*Timeline{}}
		if len(runs) == 1 {
			// The run is the whole trace: a second snapshot of the
			// registry (own maps), not a second replay.
			r.Metrics = whole.Snapshot()
		} else {
			m := obs.NewMetrics()
			m.Replay(run)
			r.Metrics = m.Snapshot()
		}
		r.Spans = Correlate(run)
		r.Tenants = TenantReportFromEvents(run)
		for i := range r.Spans {
			if !r.Spans[i].Complete {
				r.Incomplete++
			}
		}
		timelines := timelinesFromEvents(run)
		for ch := range r.Metrics.Channels {
			if r.Timelines[ch] = timelines[ch]; r.Timelines[ch] == nil {
				r.Timelines[ch] = &Timeline{Channel: ch}
			}
		}
		for _, ch := range r.Channels() {
			r.Violations = append(r.Violations, r.Timelines[ch].Violations()...)
		}
		res.Spans = append(res.Spans, r.Spans...)
		res.Violations = append(res.Violations, r.Violations...)
		res.Runs = append(res.Runs, r)
	}
	res.Components = SummarizeSpans(res.Spans)
	return res
}
