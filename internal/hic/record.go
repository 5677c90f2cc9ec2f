package hic

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Recorded-trace replay, Flashmon-style: a run's host command stream is
// captured at the Frontend enqueue boundary (FrontendConfig.Record) as
// obs.KindHostEnqueue events, one per command in enqueue order — an
// ordinary obs trace:
//
//	{"t":0,"kind":"host-enqueue","txn":512,"chip":-1,"depth":1,"label":"hot-reader"}
//
// Replaying a recording on a fresh, identically configured rig enqueues
// every command at its recorded instant in its recorded order — the
// same host command stream, open loop — and re-recording the replay
// reproduces the file byte for byte.

// maxRecordedQueues bounds the queue index a recording may name when
// no frontend is given: NVMe's I/O queue-ID space, so a hostile index is
// refused rather than sized into a frontend.
const maxRecordedQueues = 1 << 16

// CheckRecording decodes and checks a recording before anything is built
// to replay it. It refuses an empty trace and any event that is not a
// host-enqueue, names a command kind other than read, write or trim, a
// queue outside [0, queues), or an LPN of math.MaxInt or above, or is
// enqueued at a negative or decreasing instant; the error names the
// event, counting from 1. queues is the replaying frontend's queue
// count, or 0 for a frontend to be sized from the recording (then the
// bound is 65,536 queues). It returns the queues the recording names and
// the LPN span it touches: the highest of each plus one.
func CheckRecording(events []obs.Event, queues int) (used, span int, err error) {
	if len(events) == 0 {
		return 0, 0, fmt.Errorf("hic: empty trace")
	}
	if queues <= 0 {
		queues = maxRecordedQueues
	}
	var last sim.Time
	for i, e := range events {
		var bad string
		switch {
		case e.Kind != obs.KindHostEnqueue:
			bad = fmt.Sprintf("kind %s, want %s", e.Kind, obs.KindHostEnqueue)
		case e.Cycles < int64(KindRead) || e.Cycles > int64(KindTrim):
			bad = fmt.Sprintf("command kind %d is not read, write or trim", e.Cycles)
		case e.Depth < 0 || int(e.Depth) >= queues:
			bad = fmt.Sprintf("queue %d is outside [0, %d)", e.Depth, queues)
		case e.TxnID >= math.MaxInt:
			bad = fmt.Sprintf("LPN %d is out of range", e.TxnID)
		case e.Time < last:
			bad = fmt.Sprintf("enqueued at %d ps, before %d ps", e.Time, last)
		}
		if bad != "" {
			return 0, 0, fmt.Errorf("hic: trace event %d: %s", i+1, bad)
		}
		last = e.Time
		used, span = max(used, int(e.Depth)+1), max(span, int(e.TxnID)+1)
	}
	return used, span, nil
}

// Replay is the recorded source: it schedules every recorded command's
// enqueue at its recorded instant (open loop, like fio --read_iolog, so
// queue buildup under overload shows in the latency distribution) and
// returns the aggregate result, populated once the caller runs the
// kernel to completion. Completions emit obs.KindHostCmd events carrying
// each command's recorded tenant, so the per-tenant analyze pipeline
// works on replays too; nil tracer disables emission. Replay on a rig
// whose clock is already past a command's instant enqueues it
// immediately.
//
// Before it schedules anything, Replay refuses every trace
// CheckRecording refuses for f.Queues() queues.
func Replay(k *sim.Kernel, f *Frontend, events []obs.Event, tracer obs.Tracer) (*Result, error) {
	if _, _, err := CheckRecording(events, f.Queues()); err != nil {
		return nil, err
	}
	res := newResult("", k.Now(), len(events))
	for _, e := range events {
		q, kind := int(e.Depth), Kind(e.Cycles)
		k.After(max(0, e.Time.Sub(k.Now())), func() {
			submitted := k.Now()
			res.issue(kind)
			f.Enqueue(q, Command{
				Kind: kind, LPN: int(e.TxnID), Tenant: e.Label,
				Done: func(err error) {
					res.complete(k.Now(), submitted, q, e.Label, kind, err, tracer)
				},
			})
		})
	}
	return res, nil
}
