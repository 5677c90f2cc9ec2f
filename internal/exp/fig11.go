package exp

import (
	"fmt"
	"strings"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/wave"
)

// Fig11Result is the poll-period analysis for one software environment:
// the logic-analyzer measurement of Section VI-B.
type Fig11Result struct {
	Controller   ssd.ControllerKind
	Reads        int
	PollsPerRead float64
	// MeanPollPeriod is the time between consecutive READ STATUS
	// latches while waiting out tR — the paper reports ≈30 µs for the
	// coroutine environment at 1 GHz.
	MeanPollPeriod sim.Duration
	// MeanReadLatency is the full operation latency.
	MeanReadLatency sim.Duration
	// Trace is an analyzer-style rendering of one operation.
	Trace string
}

// Fig11 reproduces Figure 11: a single LUN, a 1 GHz core, and a stream
// of READ operations, with the channel waveform captured so the polling
// cadence of the RTOS and coroutine environments can be measured
// precisely — our stand-in for the Keysight analyzer screenshots.
func Fig11(opt Options) ([]Fig11Result, error) {
	opt = opt.withDefaults()
	reads := opt.Ops / 10
	if reads < 4 {
		reads = 4
	}
	kinds := []ssd.ControllerKind{ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro}
	return sweep(opt, kinds, func(kind ssd.ControllerKind, tracer obs.Tracer) (Fig11Result, error) {
		var pins obs.Buffer
		res, _, err := runClean(opt, ssd.BuildConfig{
			Params: shrink(nand.Hynix(), opt.Blocks), Ways: 1, RateMT: 200,
			Controller: kind, CPUMHz: 1000,
		}, tracer, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindRead,
			NumOps: reads, QueueDepth: 1, LogicalPages: reads,
		}, &pins)
		if err != nil {
			return Fig11Result{}, fmt.Errorf("fig11 %v: %w", kind, err)
		}
		polls, period := pollCadence(pins.Events())
		return Fig11Result{
			Controller:      kind,
			Reads:           reads,
			PollsPerRead:    float64(polls) / float64(reads),
			MeanPollPeriod:  period,
			MeanReadLatency: res.MeanLatency(),
			Trace:           firstOpTrace(pins.Events()),
		}, nil
	})
}

// pollCadence counts READ STATUS latch bursts and the mean gap between
// consecutive polls belonging to the same operation.
func pollCadence(events []obs.Event) (polls int, meanPeriod sim.Duration) {
	var gaps []sim.Duration
	lastByOp := map[uint64]sim.Time{}
	for _, s := range events {
		if s.Kind != obs.KindBusCmdAddr || !strings.Contains(s.Label, "READ-STATUS") {
			continue
		}
		polls++
		if prev, ok := lastByOp[s.OpID]; ok {
			gaps = append(gaps, s.Start.Sub(prev))
		}
		lastByOp[s.OpID] = s.Start
	}
	if len(gaps) == 0 {
		return polls, 0
	}
	var sum sim.Duration
	for _, g := range gaps {
		sum += g
	}
	return polls, sum / sim.Duration(len(gaps))
}

// firstOpTrace renders the first 12 segments of the first operation in
// the trace.
func firstOpTrace(events []obs.Event) string {
	var first uint64
	for _, s := range events {
		if s.OpID != 0 {
			first = s.OpID
			break
		}
	}
	var segs []obs.Event
	for _, s := range events {
		if s.OpID == first && len(segs) < 12 {
			segs = append(segs, s)
		}
	}
	return wave.Render(segs)
}

// Fig9 renders the waveform of one full ONFI READ produced by
// Algorithm 2 (ReadPage) on an idle channel — the paper's Figure 9: the
// command/address enqueue, the polling instead of a fixed tR, and the
// column-change + transfer segment.
func Fig9() (string, error) {
	var pins obs.Buffer
	if _, _, err := runClean(Options{}, ssd.BuildConfig{
		Params: shrink(nand.Hynix(), 16), Ways: 1, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
	}, nil, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 1, QueueDepth: 1, LogicalPages: 1,
	}, &pins); err != nil {
		return "", fmt.Errorf("fig9: %w", err)
	}
	return table("Fig 9: waveform of an ONFI READ produced by Algorithm 2 (RTOS @ 1 GHz)", nil) +
		wave.Render(pins.Events()), nil
}

// RenderFig11 formats the poll-cadence comparison.
func RenderFig11(results []Fig11Result) string {
	var rows []string
	for _, r := range results {
		rows = append(rows, fmt.Sprintf("%-6s reads=%-4d polls/read=%-7.1f poll-period=%-10s read-latency=%s",
			r.Controller, r.Reads, r.PollsPerRead, us(r.MeanPollPeriod), us(r.MeanReadLatency)))
	}
	out := table("Fig 11: READ STATUS polling cadence, 1 LUN @ 1 GHz (paper: Coro ≈30us/poll)", rows)
	for _, r := range results {
		out += fmt.Sprintf("\n%s — first READ, analyzer view:\n%s", r.Controller, r.Trace)
	}
	return out
}
