package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Interval is one strip of reconstructed channel occupancy on a
// timeline: a command/address burst, a data burst, a timed wait, or a
// whole transaction.
type Interval struct {
	Start, End sim.Time
	Chip       int
	OpID       uint64
	// Label names the activity: a µFSM instruction ("cmd-addr",
	// "data-read", "data-write", "timer-wait") or a transaction ("txn").
	Label string
}

// Duration of the interval.
func (iv Interval) Duration() sim.Duration { return iv.End.Sub(iv.Start) }

// Timeline is the reconstructed bus activity of one channel: what the
// paper reads off the logic analyzer in Figure 9, recovered from the
// event stream. Per-die activity (tR/tPROG/tBERS) is not in the stream;
// `babolbench wave` shows it for one operation.
type Timeline struct {
	Channel   int
	Intervals []Interval // sorted by Start
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
		if ch := int(e.Channel); t == nil || t.Channel != ch {
			if t = out[ch]; t == nil {
				t = &Timeline{Channel: ch}
				out[ch] = t
			}
		}
		switch {
		case e.Kind == obs.KindTxnExecuted:
			if !t.instrLevel {
				t.add(Interval{
					Start: e.Start, End: e.End, Chip: int(e.Chip),
					OpID: e.OpID, Label: "txn",
				})
			}
		case e.Dur > 0:
			if !t.instrLevel {
				*t = Timeline{Channel: t.Channel, Intervals: t.Intervals[:0], instrLevel: true}
			}
			t.add(Interval{
				Start: e.Time.Add(-e.Dur), End: e.Time, Chip: int(e.Chip),
				OpID: e.OpID, Label: e.Label,
			})
		}
	}
	for _, t := range out {
		t.sortIntervals()
	}
	return out
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

// Occupancy summarizes where a channel's time went: the §VI occupancy
// statistics (how busy the bus was, how the idle time fragments).
type Occupancy struct {
	// Span is Last−First; Busy is the union of channel intervals; Idle
	// is the remainder.
	Span, Busy, Idle sim.Duration
	// IdleGaps counts idle stretches between channel activity;
	// LongestIdle is the widest one.
	IdleGaps    int
	LongestIdle sim.Duration
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

// Occupancy computes the timeline's occupancy statistics.
func (t *Timeline) Occupancy() Occupancy {
	o := Occupancy{Span: t.Last.Sub(t.First)}
	busy := merge(t.Intervals)
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
	return o
}

// Violation is one protocol-sanity breach found in a reconstructed
// timeline. These are structural checks on the reconstruction
// (exclusivity, plausibility); wave.Checker remains the authority on
// ONFI electrical timing minima, over the bus's pin-level events.
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
//     a µFSM charged no bus time for real work.
func (t *Timeline) Violations() []Violation {
	var out []Violation
	ch := t.Intervals
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
	return out
}
