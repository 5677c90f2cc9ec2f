package exp

import (
	"fmt"
	"sort"

	"repro/internal/analyze"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// SplitRow is one configuration's software/hardware time decomposition —
// the paper's Table II view, derived entirely from the obs event stream
// rather than ad-hoc counters.
type SplitRow struct {
	Controller ssd.ControllerKind
	CPUMHz     int
	Reads      int
	// Software is the firmware time charged to the CPU model; Hardware
	// is the channel's bus occupancy. Both are event-stream sums that
	// reproduce the cpumodel/bus counters exactly.
	Software sim.Duration
	Hardware sim.Duration
	// Elapsed is the virtual span of the run.
	Elapsed sim.Duration
	// PollResubmits counts re-issued status transactions (§VI-C), the
	// dominant software overhead of the coroutine environment.
	PollResubmits uint64
	// MeanQueueDepth is the average hardware-visible transaction queue
	// depth, sampled at every enqueue and pop.
	MeanQueueDepth float64
	// Charges breaks Software down per firmware action.
	Charges map[string]obs.ChargeStats
	// Components is the per-operation latency breakdown (queue wait,
	// channel, cell, firmware) with percentile summaries, from the
	// logic analyzer's span correlation over the same event stream.
	Components analyze.Components
	// Occupancy is the channel's reconstructed timeline statistics:
	// busy/idle split, idle-gap fragmentation, die overlap.
	Occupancy analyze.Occupancy
}

// SoftwareShare is Software / (Software + Hardware).
func (r SplitRow) SoftwareShare() float64 {
	total := r.Software + r.Hardware
	if total <= 0 {
		return 0
	}
	return float64(r.Software) / float64(total)
}

// splitCPUs are the firmware clocks swept: the 150 MHz soft core where
// software time dominates, and the 1 GHz ARM case where it vanishes.
var splitCPUs = []int{150, 1000}

// TimeSplit runs a single-LUN sequential read stream against both BABOL
// software environments at each clock in splitCPUs, with the metrics
// roll-up enabled, and reports where the time went.
func TimeSplit(opt Options) ([]SplitRow, error) {
	opt = opt.withDefaults()
	reads := opt.Ops / 4
	if reads < 8 {
		reads = 8
	}
	type cfg struct {
		kind ssd.ControllerKind
		mhz  int
	}
	var cfgs []cfg
	for _, kind := range []ssd.ControllerKind{ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro} {
		for _, mhz := range splitCPUs {
			cfgs = append(cfgs, cfg{kind, mhz})
		}
	}
	out := make([]SplitRow, len(cfgs))
	err := sweep(opt, len(cfgs), func(i int, tracer obs.Tracer) error {
		c := cfgs[i]
		// The analyzer needs the rig's raw stream regardless of whether
		// the sweep has an external tracer; capture it locally and
		// forward to the sweep's sink as well.
		var buf obs.Buffer
		rigTracer := obs.Tracer(&buf)
		if tracer != nil {
			rigTracer = obs.Multi{tracer, &buf}
		}
		rig, err := opt.build(ssd.BuildConfig{
			Params: shrink(nand.Hynix(), opt.Blocks), Ways: 1, RateMT: 200,
			Controller: c.kind, CPUMHz: c.mhz, Observe: true,
		}, rigTracer)
		if err != nil {
			return err
		}
		defer rig.Close()
		if err := rig.SSD.Preload(reads); err != nil {
			return err
		}
		if _, err := runClean(rig, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindRead,
			NumOps: reads, QueueDepth: 2, LogicalPages: reads,
		}); err != nil {
			return fmt.Errorf("timesplit %v@%d: %w", c.kind, c.mhz, err)
		}
		a := analyze.Analyze(buf.Events())
		s := a.Metrics
		// The analyzer's replayed registry must reproduce the rig's live
		// one exactly — same events, same aggregation. A mismatch means
		// the offline path (babolbench analyze) would disagree with the
		// in-process numbers, so fail loudly rather than report either.
		if live := rig.Metrics.Snapshot(); s.SoftwareTime != live.SoftwareTime ||
			s.HardwareTime != live.HardwareTime || s.Events != live.Events {
			return fmt.Errorf("timesplit %v@%d: analyzer replay diverged from live metrics (sw %v vs %v, hw %v vs %v, events %d vs %d)",
				c.kind, c.mhz, s.SoftwareTime, live.SoftwareTime,
				s.HardwareTime, live.HardwareTime, s.Events, live.Events)
		}
		row := SplitRow{
			Controller: c.kind, CPUMHz: c.mhz, Reads: reads,
			Software: s.SoftwareTime, Hardware: s.HardwareTime,
			Elapsed:        s.Span(),
			PollResubmits:  s.PollResubmits,
			MeanQueueDepth: s.QueueDepth.Mean(),
			Charges:        s.Charges,
			Components:     a.Components,
		}
		if len(a.Runs) == 1 {
			if tl := a.Runs[0].Timelines[0]; tl != nil {
				row.Occupancy = tl.Occupancy()
			}
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TimeSplitCSV renders the decomposition as machine-readable CSV,
// including the analyzer's per-op latency percentiles and channel
// occupancy split.
func TimeSplitCSV(rows []SplitRow) string {
	out := "controller,cpu_mhz,reads,software_us,hardware_us,software_share,poll_resubmits,mean_qdepth," +
		"lat_p50_us,lat_p99_us,queue_wait_p50_us,cell_p50_us,firmware_p50_us,busy_us,idle_us,utilization\n"
	for _, r := range rows {
		c, o := r.Components, r.Occupancy
		out += fmt.Sprintf("%s,%d,%d,%.2f,%.2f,%.3f,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f\n",
			r.Controller, r.CPUMHz, r.Reads,
			r.Software.Micros(), r.Hardware.Micros(), r.SoftwareShare(),
			r.PollResubmits, r.MeanQueueDepth,
			c.Latency.P50.Micros(), c.Latency.P99.Micros(),
			c.QueueWait.P50.Micros(), c.CellTime.P50.Micros(), c.Firmware.P50.Micros(),
			o.Busy.Micros(), o.Idle.Micros(), o.Utilization())
	}
	return out
}

// RenderTimeSplit formats the software/hardware decomposition with the
// per-action charge breakdown.
func RenderTimeSplit(rows []SplitRow) string {
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%-6s @%-5d sw=%-10s hw=%-10s sw%%=%-6.1f polls=%-6d qdepth=%.2f",
			r.Controller, r.CPUMHz, us(r.Software), us(r.Hardware),
			100*r.SoftwareShare(), r.PollResubmits, r.MeanQueueDepth))
	}
	out := table("Time split: software (CPU) vs hardware (channel) time from the event stream", lines)
	out += "\nPer-op latency breakdown (p50/p99 from span correlation):\n"
	for _, r := range rows {
		c := r.Components
		out += fmt.Sprintf("%-6s @%-5d lat=%s/%s queue=%s/%s chan=%s/%s cell=%s/%s fw=%s/%s util=%.1f%%\n",
			r.Controller, r.CPUMHz,
			us(c.Latency.P50), us(c.Latency.P99),
			us(c.QueueWait.P50), us(c.QueueWait.P99),
			us(c.ChannelTime.P50), us(c.ChannelTime.P99),
			us(c.CellTime.P50), us(c.CellTime.P99),
			us(c.Firmware.P50), us(c.Firmware.P99),
			100*r.Occupancy.Utilization())
	}
	for _, r := range rows {
		labels := make([]string, 0, len(r.Charges))
		for l := range r.Charges {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		out += fmt.Sprintf("\n%s @%d MHz charge breakdown:\n", r.Controller, r.CPUMHz)
		for _, l := range labels {
			c := r.Charges[l]
			out += fmt.Sprintf("  %-14s n=%-7d cycles=%-10d time=%s\n", l, c.Count, c.Cycles, us(c.Time))
		}
	}
	return out
}
