package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wave"
)

// Interval is one strip of reconstructed activity on a timeline: either
// channel occupancy (a command/address burst, a data burst, a timed
// wait) or a die-internal busy window (tR/tPROG/tBERS), distinguished
// by OnChannel.
type Interval struct {
	Start, End sim.Time
	Chip       int
	OpID       uint64
	TxnID      uint64
	// Label names the activity: a µFSM instruction ("cmd-addr",
	// "data-read", "data-write", "timer-wait"), a transaction ("txn"),
	// or a busy cause ("tR", "tPROG", "tBERS").
	Label string
	Bytes int
	// OnChannel marks bus occupancy; false marks a die-busy window that
	// runs in parallel with the channel.
	OnChannel bool
}

// Duration of the interval.
func (iv Interval) Duration() sim.Duration { return iv.End.Sub(iv.Start) }

// Timeline is the reconstructed activity of one channel: what the
// paper reads off the logic analyzer in Figure 9, recovered from the
// event stream (and optionally enriched with wave.Recorder segments
// for die-busy lanes).
type Timeline struct {
	Channel   int
	Intervals []Interval // sorted by Start, channel and die mixed
	// First/Last bound the observed activity.
	First, Last sim.Time
	// instrLevel marks channel intervals reconstructed from µFSM
	// instruction events rather than whole-transaction brackets.
	instrLevel bool
}

// timelinesFromEvents reconstructs every channel's timeline from one
// rig's event stream in a single scan. µFSM instruction events give
// instruction-level strips when a channel has any (each KindHWInstr
// reports the bus occupancy it appended, so its strip is
// [Time−Dur, Time]); otherwise the coarser per-transaction brackets are
// used. Using both would double-count the same bus time, so a
// channel's first timed instruction discards the transaction brackets
// collected for it until then.
func timelinesFromEvents(events []obs.Event) map[int]*Timeline {
	out := map[int]*Timeline{}
	var t *Timeline // the timeline of the last strip: runs of one channel skip the map
	for i := range events {
		e := &events[i]
		if e.Kind != obs.KindHWInstr && e.Kind != obs.KindTxnExecuted {
			continue
		}
		if t == nil || t.Channel != e.Channel {
			if t = out[e.Channel]; t == nil {
				t = &Timeline{Channel: e.Channel}
				out[e.Channel] = t
			}
		}
		switch {
		case e.Kind == obs.KindTxnExecuted:
			if !t.instrLevel {
				t.add(Interval{
					Start: e.Start, End: e.End, Chip: e.Chip,
					OpID: e.OpID, TxnID: e.TxnID, Label: "txn", OnChannel: true,
				})
			}
		case e.Dur > 0:
			if !t.instrLevel {
				*t = Timeline{Channel: e.Channel, Intervals: t.Intervals[:0], instrLevel: true}
			}
			t.add(Interval{
				Start: e.Time.Add(-e.Dur), End: e.Time, Chip: e.Chip,
				OpID: e.OpID, TxnID: e.TxnID, Label: e.Label, Bytes: e.Bytes,
				OnChannel: true,
			})
		}
	}
	for _, t := range out {
		t.sortIntervals()
	}
	return out
}

// AddSegments merges wave.Recorder segments into the timeline — the
// recorder contributes the die-busy windows (KindBusy) that the event
// stream does not carry, turning the per-chip lanes into the full
// Figure 9 picture. Channel-occupying segment kinds are skipped when
// the timeline already has channel intervals from events (same bus
// time, two sources).
func (t *Timeline) AddSegments(segs []wave.Segment) {
	hasChannel := false
	for _, iv := range t.Intervals {
		if iv.OnChannel {
			hasChannel = true
			break
		}
	}
	for _, s := range segs {
		if s.OnChannel() && hasChannel {
			continue
		}
		t.add(Interval{
			Start: s.Start, End: s.End, Chip: s.Chip, OpID: s.OpID,
			Label: s.Label, Bytes: s.Bytes, OnChannel: s.OnChannel(),
		})
	}
	t.sortIntervals()
}

func (t *Timeline) add(iv Interval) {
	if len(t.Intervals) == 0 || iv.Start < t.First {
		t.First = iv.Start
	}
	if iv.End > t.Last {
		t.Last = iv.End
	}
	t.Intervals = append(t.Intervals, iv)
}

func (t *Timeline) sortIntervals() {
	sort.SliceStable(t.Intervals, func(i, j int) bool {
		if t.Intervals[i].Start != t.Intervals[j].Start {
			return t.Intervals[i].Start < t.Intervals[j].Start
		}
		return t.Intervals[i].End < t.Intervals[j].End
	})
}

// channel returns only the bus-occupying intervals, in start order.
func (t *Timeline) channel() []Interval {
	var out []Interval
	for _, iv := range t.Intervals {
		if iv.OnChannel {
			out = append(out, iv)
		}
	}
	return out
}

// dieBusy returns only the die-busy intervals, in start order.
func (t *Timeline) dieBusy() []Interval {
	var out []Interval
	for _, iv := range t.Intervals {
		if !iv.OnChannel {
			out = append(out, iv)
		}
	}
	return out
}

// Occupancy summarizes where a channel's time went: the §VI occupancy
// and interleaving statistics (how busy the bus was, how the idle time
// fragments, how much die work overlapped).
type Occupancy struct {
	// Span is Last−First; Busy is the union of channel intervals; Idle
	// is the remainder.
	Span, Busy, Idle sim.Duration
	// IdleGaps counts idle stretches between channel activity;
	// LongestIdle is the widest one.
	IdleGaps    int
	LongestIdle sim.Duration
	// PerChip is each chip's share of the channel occupancy.
	PerChip map[int]sim.Duration
	// DieOverlap is the time during which two or more dies were busy at
	// once — the multi-LUN interleaving the paper's software-defined
	// scheduling exists to exploit.
	DieOverlap sim.Duration
	// PipelineOverlap is the time the channel was transferring while at
	// least one die was busy: command/data work hidden under cell time.
	PipelineOverlap sim.Duration
}

// Utilization is Busy/Span (0 for an empty timeline).
func (o Occupancy) Utilization() float64 {
	if o.Span <= 0 {
		return 0
	}
	return float64(o.Busy) / float64(o.Span)
}

// merge unions sorted intervals into disjoint [start,end) pairs.
func merge(ivs []Interval) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, Interval{Start: iv.Start, End: iv.End})
	}
	return out
}

// overlap reports the total time covered by both disjoint sets.
func overlap(a, b []Interval) sim.Duration {
	var total sim.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].Start, a[i].End
		if b[j].Start > lo {
			lo = b[j].Start
		}
		if b[j].End < hi {
			hi = b[j].End
		}
		if hi > lo {
			total += hi.Sub(lo)
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}

// Occupancy computes the timeline's occupancy statistics.
func (t *Timeline) Occupancy() Occupancy {
	o := Occupancy{Span: t.Last.Sub(t.First), PerChip: map[int]sim.Duration{}}
	ch := t.channel()
	for _, iv := range ch {
		o.PerChip[iv.Chip] += iv.Duration()
	}
	busy := merge(ch)
	for _, iv := range busy {
		o.Busy += iv.Duration()
	}
	o.Idle = o.Span - o.Busy
	if o.Idle < 0 {
		o.Idle = 0
	}
	for i := 1; i < len(busy); i++ {
		if gap := busy[i].Start.Sub(busy[i-1].End); gap > 0 {
			o.IdleGaps++
			if gap > o.LongestIdle {
				o.LongestIdle = gap
			}
		}
	}

	// Die overlap: union per chip, then pairwise overlap of the unions
	// (with ≤8 dies per channel the quadratic pass is nothing).
	perDie := map[int][]Interval{}
	for _, iv := range t.dieBusy() {
		perDie[iv.Chip] = append(perDie[iv.Chip], iv)
	}
	chips := make([]int, 0, len(perDie))
	for c := range perDie {
		perDie[c] = merge(perDie[c])
		chips = append(chips, c)
	}
	sort.Ints(chips)
	var allBusy []Interval
	for _, c := range chips {
		allBusy = append(allBusy, perDie[c]...)
	}
	for i, c := range chips {
		for _, d := range chips[i+1:] {
			o.DieOverlap += overlap(perDie[c], perDie[d])
		}
	}
	sort.SliceStable(allBusy, func(i, j int) bool { return allBusy[i].Start < allBusy[j].Start })
	o.PipelineOverlap = overlap(busy, merge(allBusy))
	return o
}

// Violation is one protocol-sanity breach found in a reconstructed
// timeline. These are structural checks on the reconstruction
// (exclusivity, plausibility); wave.Checker remains the authority on
// ONFI electrical timing minima for recorded segments.
type Violation struct {
	Time    sim.Time
	Channel int
	Chip    int
	Rule    string
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v ch%d chip%d: %s: %s", v.Time, v.Channel, v.Chip, v.Rule, v.Detail)
}

// Violations runs the protocol sanity pass:
//
//  1. channel exclusivity — two bus intervals must never overlap;
//  2. zero-length bursts — a command or data strip with no width means
//     a µFSM charged no bus time for real work;
//  3. die-busy data transfer — a multi-byte data burst addressed to a
//     die inside its own tR/tPROG window can't be answered (single-byte
//     status polls during busy are exactly how polling works, and a
//     suspended erase legitimately services reads inside tBERS, so
//     both are exempt).
func (t *Timeline) Violations() []Violation {
	var out []Violation
	ch := t.channel()
	for i := 1; i < len(ch); i++ {
		if ch[i].Start < ch[i-1].End {
			out = append(out, Violation{
				Time: ch[i].Start, Channel: t.Channel, Chip: ch[i].Chip,
				Rule: "channel exclusivity",
				Detail: fmt.Sprintf("%s (op %d) overlaps %s (op %d) by %v",
					ch[i].Label, ch[i].OpID, ch[i-1].Label, ch[i-1].OpID,
					ch[i-1].End.Sub(ch[i].Start)),
			})
		}
	}
	for _, iv := range ch {
		if iv.End <= iv.Start && iv.Label != "timer-wait" {
			out = append(out, Violation{
				Time: iv.Start, Channel: t.Channel, Chip: iv.Chip,
				Rule:   "zero-length burst",
				Detail: fmt.Sprintf("%s (op %d) has no width", iv.Label, iv.OpID),
			})
		}
	}
	busyDies := map[int][]Interval{}
	for _, iv := range t.dieBusy() {
		if iv.Label == "tR" || iv.Label == "tPROG" {
			busyDies[iv.Chip] = append(busyDies[iv.Chip], iv)
		}
	}
	for _, iv := range ch {
		if iv.Bytes <= 1 {
			continue // status polls are allowed (and expected) during busy
		}
		for _, b := range busyDies[iv.Chip] {
			if iv.Start < b.End && b.Start < iv.End {
				out = append(out, Violation{
					Time: iv.Start, Channel: t.Channel, Chip: iv.Chip,
					Rule: "data transfer during die busy",
					Detail: fmt.Sprintf("%s (%dB, op %d) inside %s [%v,%v]",
						iv.Label, iv.Bytes, iv.OpID, b.Label, b.Start, b.End),
				})
				break
			}
		}
	}
	return out
}

// CheckSegments converts wave.Checker's ONFI timing verdicts on a
// recorded trace into analyzer violations, so one report covers both
// the structural pass and the electrical-timing pass.
func CheckSegments(chk *wave.Checker, channel int, segs []wave.Segment) []Violation {
	var out []Violation
	for _, v := range chk.Check(segs) {
		s := segs[v.Index]
		out = append(out, Violation{
			Time: s.Start, Channel: channel, Chip: s.Chip,
			Rule:   "onfi timing: " + v.Rule,
			Detail: fmt.Sprintf("need ≥%v, got %v (%s)", v.Want, v.Got, s.Label),
		})
	}
	return out
}
