package hic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Recorded-trace replay, Flashmon-style: a run's host command stream is
// captured at the Frontend enqueue boundary as JSONL — one object per
// line:
//
//	{"at_ps":0,"queue":0,"tenant":"hot-reader","op":"read","lpn":512}
//
// at_ps is the absolute virtual enqueue instant in picoseconds (runs
// start at 0 on a fresh rig), and lines are in enqueue order, so
// arrivals are non-decreasing. Replaying a recording on a fresh,
// identically configured rig enqueues every command at its recorded
// instant in its recorded order — the same host command stream, open
// loop — and re-recording the replay reproduces the file byte for byte.

// RecordEntry is one recorded host command.
type RecordEntry struct {
	AtPs   int64  `json:"at_ps"`
	Queue  int    `json:"queue"`
	Tenant string `json:"tenant,omitempty"`
	Op     string `json:"op"`
	LPN    int    `json:"lpn"`
}

// Recorder captures a Frontend's enqueue stream (FrontendConfig.Recorder).
type Recorder struct {
	entries []RecordEntry
}

// record appends one enqueue; the Frontend calls it.
func (r *Recorder) record(at sim.Time, queue int, cmd Command) {
	r.entries = append(r.entries, RecordEntry{
		AtPs: int64(at), Queue: queue, Tenant: cmd.Tenant,
		Op: cmd.Kind.String(), LPN: cmd.LPN,
	})
}

// Len reports the captured command count.
func (r *Recorder) Len() int { return len(r.entries) }

// Entries returns the captured stream in enqueue order. The slice is
// the recorder's own; treat it as read-only.
func (r *Recorder) Entries() []RecordEntry { return r.entries }

// WriteJSONL streams the recording, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range r.entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a recorded trace, validating what replay relies on:
// known ops, in-range fields, non-decreasing arrivals.
func ReadJSONL(rd io.Reader) ([]RecordEntry, error) {
	var out []RecordEntry
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	var last int64
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e RecordEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("hic: trace line %d: %w", lineNo, err)
		}
		if _, ok := KindFromString(e.Op); !ok {
			return nil, fmt.Errorf("hic: trace line %d: bad op %q", lineNo, e.Op)
		}
		if e.AtPs < 0 || e.LPN < 0 || e.Queue < 0 {
			return nil, fmt.Errorf("hic: trace line %d: negative field in %+v", lineNo, e)
		}
		if e.AtPs < last {
			return nil, fmt.Errorf("hic: trace line %d: arrivals must be non-decreasing", lineNo)
		}
		last = e.AtPs
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hic: trace has no commands")
	}
	return out, nil
}

// Replay is the recorded source: it schedules every recorded command's
// enqueue at its recorded instant (open loop, like fio --read_iolog, so
// queue buildup under overload shows in the latency distribution) and
// returns the aggregate result, populated once the caller runs the
// kernel to completion. Completions emit obs.KindHostCmd events carrying
// each entry's recorded tenant, so the per-tenant analyze pipeline works
// on replays too; nil tracer disables emission. Replay on a rig whose
// clock is already past an entry's instant enqueues it immediately.
func Replay(k *sim.Kernel, f *Frontend, entries []RecordEntry, tracer obs.Tracer) (*Result, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("hic: empty trace")
	}
	for i, e := range entries {
		if e.Queue < 0 || e.Queue >= f.Queues() {
			return nil, fmt.Errorf("hic: trace entry %d: queue %d but frontend has %d", i, e.Queue, f.Queues())
		}
		if _, ok := KindFromString(e.Op); !ok {
			return nil, fmt.Errorf("hic: trace entry %d: bad op %q", i, e.Op)
		}
	}
	res := newResult("", k.Now(), len(entries))
	for _, e := range entries {
		kind, _ := KindFromString(e.Op)
		k.After(max(0, sim.Time(e.AtPs).Sub(k.Now())), func() {
			submitted := k.Now()
			res.issue(kind)
			f.Enqueue(e.Queue, Command{
				Kind: kind, LPN: e.LPN, Tenant: e.Tenant,
				Done: func(err error) {
					res.complete(k.Now(), submitted, e.Queue, e.Tenant, kind, err, tracer)
				},
			})
		})
	}
	return res, nil
}
