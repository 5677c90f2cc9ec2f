// Package analyze is the software logic analyzer: it reconstructs what
// the controller actually did from one input, the obs event stream
// (babolbench -trace JSONL, or an in-memory obs.Buffer).
//
// Every aggregate count comes from replaying the stream through
// obs.Metrics; this package adds only what a registry cannot hold:
//
//   - Spans: every host operation correlated into a begin-to-end span
//     (admitted → queued → each transaction's bus occupancy →
//     completed) with a per-op latency breakdown — queue wait, channel
//     time, cell time, firmware CPU time — and exact percentile
//     summaries across ops and tenants.
//
//   - Timelines: a per-channel, per-chip Gantt reconstruction of bus
//     activity, rebuilt from µFSM instruction events, with occupancy and
//     idle-gap statistics (render.go). Die-internal busy time reaches a
//     stream only as the channel's pin-level events, which the analyzer
//     skips; `babolbench wave` shows it for one operation.
//
//   - Violations: a protocol sanity pass over the reconstruction —
//     overlapping channel activity and zero-length bursts — beside
//     wave.Checker's ONFI timing rules, which `babolbench wave` applies.
//
// This is the paper's §VI-B Keysight logic-analyzer methodology turned
// into software: instead of probing DQ/RE/WE pins, the analyzer probes
// the controller's own event stream, so every figure derived from a
// trace (Table II time splits, Figure 9 waveforms, Figure 11 polling
// cadence) can be recomputed offline from one JSONL file.
package analyze

import (
	"cmp"
	"slices"

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
	FirmwareTime sim.Duration

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
	seen := admittedSet{channels: map[int]*opBits{}}
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
		k := opKey{int(e.Channel), e.OpID}
		if seen.has(k) {
			runs = append(runs, events[start:i])
			start = i
			seen.reset()
		} else if e.Kind == obs.KindCPUCharge {
			// Admit charges also fire when a parked op is re-admitted,
			// so only a charge for an op this run has *already* admitted
			// marks a boundary.
			continue
		}
		if e.Kind == obs.KindOpAdmitted {
			seen.add(k)
		}
	}
	if start < len(events) {
		runs = append(runs, events[start:])
	}
	return runs
}

// opKey names an operation within one run: op IDs count per controller,
// one controller per channel.
type opKey struct {
	channel int
	op      uint64
}

// admittedSet is the set of operations a run has admitted, built to
// cost O(log n) allocations for n ops where a map costs one per bucket
// it fills. A controller numbers its ops 1, 2, 3, …, so each channel
// keeps a bitset grown by appending. The bitset may hold no more words
// than its channel has admitted ops, plus slack, so an input's op IDs
// cannot make it larger than the map it replaces; an ID beyond that
// goes to a map.
type admittedSet struct {
	channels map[int]*opBits
	sparse   map[opKey]bool
}

type opBits struct {
	words    []uint64
	admitted int
}

func (s *admittedSet) has(k opKey) bool {
	if b := s.channels[k.channel]; b != nil {
		if i := k.op / 64; i < uint64(len(b.words)) && b.words[i]&(1<<(k.op%64)) != 0 {
			return true
		}
	}
	return s.sparse[k]
}

// add inserts an op the set does not hold.
func (s *admittedSet) add(k opKey) {
	b := s.channels[k.channel]
	if b == nil {
		b = &opBits{}
		s.channels[k.channel] = b
	}
	b.admitted++
	i := k.op / 64
	if i >= uint64(len(b.words)) {
		if i >= uint64(b.admitted+16) {
			if s.sparse == nil {
				s.sparse = map[opKey]bool{}
			}
			s.sparse[k] = true
			return
		}
		b.words = append(b.words, make([]uint64, int(i)+1-len(b.words))...)
	}
	b.words[i] |= 1 << (k.op % 64)
}

// reset empties the set, keeping its storage for the next run.
func (s *admittedSet) reset() {
	for _, b := range s.channels {
		clear(b.words)
		b.admitted = 0
	}
	clear(s.sparse)
}

// Correlate folds one rig's event stream into operation spans. Spans
// are returned in completion order, then any incomplete spans (admitted
// but never finished — a truncated trace) ordered by channel and op ID.
// Events must come from a single rig (SplitRuns first for merged
// traces): op IDs restart per rig, and Correlate reuses an ID once its
// span completes.
//
// The fold allocates per stream, not per operation: every span is a row
// of one table, found through an index of the open ones, and every
// transaction is appended to one arena tagged with its row. One counting
// pass at the end groups the arena by row, so each span's Txns is a
// capacity-limited window of a single backing array (nil when the op
// played no transaction).
func Correlate(events []obs.Event) []Span {
	type taggedTxn struct {
		row int32
		txn TxnSpan
	}
	var (
		table []Span
		open  = make(map[opKey]int32) // row of each open span
		done  []int32                 // rows in completion order
		arena []taggedTxn
	)
	row := func(e *obs.Event) int32 {
		k := opKey{int(e.Channel), e.OpID}
		r, ok := open[k]
		if !ok {
			r = int32(len(table))
			table = append(table, Span{OpID: e.OpID, Channel: int(e.Channel), Chip: -1, Submitted: e.Time})
			open[k] = r
		}
		return r
	}
	// get may grow the table, so it resolves the row before indexing.
	get := func(e *obs.Event) *Span {
		r := row(e)
		return &table[r]
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
			s.Chip = int(e.Chip)
			s.Slot = e.Label
		case obs.KindAdmissionWait:
			get(e).Waits++
		case obs.KindOpResumed:
			get(e).Resumes++
		case obs.KindPollResubmit:
			get(e).Polls++
		case obs.KindCPUCharge:
			get(e).FirmwareTime += e.Dur
		case obs.KindHWInstr:
			get(e).HWInstrs++
		case obs.KindTxnExecuted:
			r := row(e)
			arena = append(arena, taggedTxn{r, TxnSpan{
				TxnID: e.TxnID, Chip: int(e.Chip),
				Start: e.Start, End: e.End, BusTime: e.Dur, Err: e.Err,
			}})
			table[r].ChannelTime += e.Dur
		case obs.KindOpFinished:
			r := row(e)
			s := &table[r]
			s.Finished = e.Time
			s.Latency = e.Dur
			s.Submitted = e.Time.Add(-e.Dur)
			s.Err = e.Err
			s.Complete = true
			done = append(done, r)
			delete(open, opKey{int(e.Channel), e.OpID})
		}
	}
	if len(table) == 0 {
		return nil
	}
	if len(arena) > 0 {
		// Counting sort, stable within a row: end[r+1] counts row r's
		// transactions, the prefix sum turns end[r] into row r's first
		// slot, and the scatter advances end[r] to row r's end.
		end := make([]int32, len(table)+1)
		for _, t := range arena {
			end[t.row+1]++
		}
		for r := 1; r < len(end); r++ {
			end[r] += end[r-1]
		}
		txns := make([]TxnSpan, len(arena))
		for _, t := range arena {
			txns[end[t.row]] = t.txn
			end[t.row]++
		}
		start := int32(0)
		for r := range table {
			if stop := end[r]; stop > start {
				table[r].Txns = txns[start:stop:stop]
				start = stop
			}
		}
	}
	out := make([]Span, 0, len(table))
	for _, r := range done {
		out = append(out, table[r])
	}
	for _, r := range open {
		out = append(out, table[r])
	}
	slices.SortFunc(out[len(done):], func(a, b Span) int {
		if c := cmp.Compare(a.Channel, b.Channel); c != 0 {
			return c
		}
		return cmp.Compare(a.OpID, b.OpID)
	})
	return out
}
