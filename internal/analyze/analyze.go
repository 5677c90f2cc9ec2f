// Package analyze is the software logic analyzer: it reconstructs what
// the controller actually did from the observability streams the
// simulation already emits — the obs event stream (babolbench -trace
// JSONL, or an in-memory obs.Buffer) and, when available, wave.Recorder
// bus segments.
//
// Three views come out of one pass over the events:
//
//   - Spans: every host operation correlated into a begin-to-end span
//     (admitted → queued → each transaction's bus occupancy → die busy →
//     completed) with a per-op latency breakdown — queue wait, channel
//     time, cell time, firmware CPU time — and percentile summaries
//     across ops.
//
//   - Timelines: a per-channel, per-chip Gantt reconstruction of bus and
//     die activity with occupancy, idle-gap, and overlap statistics,
//     rendered as ASCII art or CSV (render.go).
//
//   - Violations: a protocol sanity pass over the reconstruction —
//     overlapping channel activity, zero-length bursts, data transfers
//     into a busy die — complementing wave.Checker's ONFI timing rules.
//
// This is the paper's §VI-B Keysight logic-analyzer methodology turned
// into software: instead of probing DQ/RE/WE pins, the analyzer probes
// the controller's own event stream, so every figure derived from a
// trace (Table II time splits, Figure 9 waveforms, Figure 11 polling
// cadence) can be recomputed offline from one JSONL file.
package analyze

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TxnSpan is one transaction's contribution to an operation: the bus
// phase the execution unit played for it.
type TxnSpan struct {
	TxnID uint64
	Chip  int
	// Start/End bracket the bus phase; BusTime is the channel occupancy
	// it added (≤ End−Start when the phase includes pure waiting).
	Start, End sim.Time
	BusTime    sim.Duration
	Err        bool
}

// Span is one host operation reconstructed from the event stream.
type Span struct {
	OpID    uint64
	Channel int
	// Chip is the die the operation was admitted to (-1 if unknown).
	Chip int
	// Slot is the admission slot kind ("active", "staged", "gang").
	Slot string

	// Submitted is when the controller first saw the operation
	// (Finished − Latency, i.e. core's op Start time); Admitted is when
	// it won a chip slot; Finished is its completion time.
	Submitted, Admitted, Finished sim.Time
	// Latency is the controller's own Start→Done measurement
	// (KindOpFinished.Dur).
	Latency sim.Duration

	// Waits counts admission-queue parks; Resumes counts firmware
	// context switches into the op; Polls counts re-issued status
	// transactions; HWInstrs counts timed µFSM instructions.
	Waits, Resumes, Polls, HWInstrs int

	Txns []TxnSpan

	// ChannelTime is the summed bus occupancy of the op's transactions.
	ChannelTime sim.Duration
	// FirmwareTime is the CPU-model time charged to this specific op
	// (admit, switch, submit, poll-resubmit). Scheduling-pass charges
	// are not attributable to a single op and are excluded, so summing
	// FirmwareTime across spans undercounts total software time by the
	// scheduling share.
	FirmwareTime   sim.Duration
	FirmwareCycles int64

	Err bool
	// Complete reports that both admission and completion were observed;
	// a truncated trace leaves trailing ops incomplete.
	Complete bool
}

// QueueWait is the admission delay: time from submission until the op
// held a chip slot. It includes the admission firmware charge, so the
// breakdown components overlap by that sliver; CellTime absorbs the
// difference as a clamped residual.
func (s *Span) QueueWait() sim.Duration {
	w := s.Admitted.Sub(s.Submitted)
	if w < 0 {
		return 0
	}
	return w
}

// CellTime is the in-die time (tR/tPROG/tBERS plus polling-interval
// slack) the op spent neither occupying the channel nor the CPU: the
// residual Latency − QueueWait − ChannelTime − FirmwareTime, clamped at
// zero.
func (s *Span) CellTime() sim.Duration {
	c := s.Latency - s.QueueWait() - s.ChannelTime - s.FirmwareTime
	if c < 0 {
		return 0
	}
	return c
}

// SplitRuns cuts a merged multi-rig trace into per-rig streams. The
// parallel sweep runner replays each rig's private buffer into the
// shared sink back-to-back in configuration order, and every rig
// restarts its virtual clock and its op-ID counter from scratch — so a
// boundary shows up structurally: an admission (the op-admitted event,
// or the admit CPU charge that precedes it) for a (channel, op) that
// the current run already admitted. Event times alone cannot mark
// boundaries: within one rig the hardware's events carry end-of-phase
// times that legitimately run ahead of the firmware's charge times, so
// the stream is not time-monotone. A single-rig trace comes back as one
// run.
func SplitRuns(events []obs.Event) [][]obs.Event {
	type key struct {
		channel int
		op      uint64
	}
	seen := make(map[key]bool)
	var runs [][]obs.Event
	start := 0
	for i := range events {
		e := &events[i]
		if e.OpID == 0 {
			continue
		}
		admission := e.Kind == obs.KindOpAdmitted ||
			(e.Kind == obs.KindCPUCharge && e.Label == "admit")
		if !admission {
			continue
		}
		k := key{e.Channel, e.OpID}
		if e.Kind == obs.KindCPUCharge && !seen[k] {
			// Admit charges also fire when a parked op is re-admitted,
			// so only a charge for an op this run has *already* admitted
			// marks a boundary.
			continue
		}
		if seen[k] {
			runs = append(runs, events[start:i])
			start = i
			seen = make(map[key]bool)
		}
		if e.Kind == obs.KindOpAdmitted {
			seen[k] = true
		}
	}
	if start < len(events) {
		runs = append(runs, events[start:])
	}
	return runs
}

// Correlate folds one rig's event stream into operation spans. Spans
// are returned in completion order, then any incomplete spans (admitted
// but never finished — a truncated trace) ordered by channel and op ID.
// Events must come from a single rig (SplitRuns first for merged
// traces): op IDs restart per rig, and Correlate reuses an ID once its
// span completes.
func Correlate(events []obs.Event) []Span {
	type key struct {
		channel int
		op      uint64
	}
	open := make(map[key]*Span)
	var done []Span
	get := func(e *obs.Event) *Span {
		k := key{e.Channel, e.OpID}
		s := open[k]
		if s == nil {
			s = &Span{OpID: e.OpID, Channel: e.Channel, Chip: -1, Submitted: e.Time}
			open[k] = s
		}
		return s
	}
	for i := range events {
		e := &events[i]
		if e.OpID == 0 {
			// Not op-attributable: scheduling charges, gate opens.
			continue
		}
		switch e.Kind {
		case obs.KindOpAdmitted:
			s := get(e)
			s.Admitted = e.Time
			s.Chip = e.Chip
			s.Slot = e.Label
		case obs.KindAdmissionWait:
			get(e).Waits++
		case obs.KindOpResumed:
			get(e).Resumes++
		case obs.KindPollResubmit:
			get(e).Polls++
		case obs.KindCPUCharge:
			s := get(e)
			s.FirmwareTime += e.Dur
			s.FirmwareCycles += e.Cycles
		case obs.KindHWInstr:
			get(e).HWInstrs++
		case obs.KindTxnExecuted:
			s := get(e)
			s.Txns = append(s.Txns, TxnSpan{
				TxnID: e.TxnID, Chip: e.Chip,
				Start: e.Start, End: e.End, BusTime: e.Dur, Err: e.Err,
			})
			s.ChannelTime += e.Dur
		case obs.KindOpFinished:
			s := get(e)
			s.Finished = e.Time
			s.Latency = e.Dur
			s.Submitted = e.Time.Add(-e.Dur)
			s.Err = e.Err
			s.Complete = true
			done = append(done, *s)
			delete(open, key{e.Channel, e.OpID})
		}
	}
	rest := make([]Span, 0, len(open))
	for _, s := range open {
		rest = append(rest, *s)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Channel != rest[j].Channel {
			return rest[i].Channel < rest[j].Channel
		}
		return rest[i].OpID < rest[j].OpID
	})
	return append(done, rest...)
}
