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
	out := make([]Fig11Result, len(kinds))
	err := sweep(opt, len(kinds), func(i int, tracer obs.Tracer) error {
		kind := kinds[i]
		params := shrink(nand.Hynix(), opt.Blocks)
		rig, err := opt.build(ssd.BuildConfig{
			Params: params, Ways: 1, RateMT: 200,
			Controller: kind, CPUMHz: 1000, Record: true,
		}, tracer)
		if err != nil {
			return err
		}
		defer rig.Close()
		if err := rig.SSD.Preload(reads); err != nil {
			return err
		}
		res, err := runClean(rig, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindRead,
			NumOps: reads, QueueDepth: 1, LogicalPages: reads,
		})
		if err != nil {
			return fmt.Errorf("fig11 %v: %w", kind, err)
		}
		polls, period := pollCadence(rig.Channel.Recorder().Segments())
		out[i] = Fig11Result{
			Controller:      kind,
			Reads:           reads,
			PollsPerRead:    float64(polls) / float64(reads),
			MeanPollPeriod:  period,
			MeanReadLatency: res.MeanLatency(),
			Trace:           firstOpTrace(rig.Channel.Recorder().Segments()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pollCadence counts READ STATUS latch bursts and the mean gap between
// consecutive polls belonging to the same operation.
func pollCadence(segs []wave.Segment) (polls int, meanPeriod sim.Duration) {
	var gaps []sim.Duration
	lastByOp := map[uint64]sim.Time{}
	for _, s := range segs {
		if s.Kind != wave.KindCmdAddr || !strings.Contains(s.Label, "READ-STATUS") {
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

// firstOpTrace renders the segments of the first operation in the trace.
func firstOpTrace(segs []wave.Segment) string {
	var first uint64
	for _, s := range segs {
		if s.OpID != 0 {
			first = s.OpID
			break
		}
	}
	r := wave.NewRecorder()
	count := 0
	for _, s := range segs {
		if s.OpID == first && count < 12 {
			r.Record(s)
			count++
		}
	}
	return r.Render()
}

// Fig9 renders the waveform of one full ONFI READ produced by
// Algorithm 2 (ReadPage) on an idle channel — the paper's Figure 9: the
// command/address enqueue, the polling instead of a fixed tR, and the
// column-change + transfer segment.
func Fig9() (string, error) {
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: shrink(nand.Hynix(), 16), Ways: 1, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, Record: true,
	})
	if err != nil {
		return "", err
	}
	defer rig.Close()
	if err := rig.SSD.Preload(1); err != nil {
		return "", err
	}
	if _, err := runClean(rig, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 1, QueueDepth: 1, LogicalPages: 1,
	}); err != nil {
		return "", fmt.Errorf("fig9: %w", err)
	}
	out := "Fig 9: waveform of an ONFI READ produced by Algorithm 2 (RTOS @ 1 GHz)\n"
	out += "------------------------------------------------------------------------\n"
	out += rig.Channel.Recorder().Render()
	return out, nil
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
