package hic

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// enqueued is the host-enqueue event a Frontend records for one command.
func enqueued(at sim.Time, q int32, kind Kind, lpn uint64, tenant string) obs.Event {
	return obs.Event{Time: at, Kind: obs.KindHostEnqueue, Chip: -1, Label: tenant, Depth: q, Cycles: int64(kind), TxnID: lpn}
}

// TestReplayReproducesStream is the replay-exactness contract at unit
// scale: record a closed-loop tenant run, replay it open loop on a
// fresh identical rig, and both the re-recorded stream and the
// device-level submission stream match the original.
func TestReplayReproducesStream(t *testing.T) {
	run := func(events []obs.Event) (*obs.Buffer, []int, *Result) {
		rec := &obs.Buffer{}
		k, d, f := tenantRig(t, 2, rec)
		var res *Result
		if events == nil {
			if _, err := RunTenants(k, f, []TenantSpec{
				{Name: "a", Queue: 0, QueueDepth: 3, NumOps: 25, SlicePages: 16, Seed: 1},
				{Name: "b", Queue: 1, QueueDepth: 2, NumOps: 25, Pattern: Sequential,
					Mix: Mix{ReadPct: 60, WritePct: 40}, SliceStart: 16, SlicePages: 16, Seed: 2},
			}, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			res, err = Replay(k, f, events, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		return rec, d.seen, res
	}

	orig, origSeen, _ := run(nil)
	rerec, replaySeen, res := run(orig.Events())

	if res.Done() != orig.Len() || res.Failed != 0 {
		t.Fatalf("replay result: %+v", res)
	}
	if !slices.Equal(rerec.Events(), orig.Events()) {
		t.Fatalf("re-recorded stream differs:\n got %+v\nwant %+v", rerec.Events(), orig.Events())
	}
	if !slices.Equal(replaySeen, origSeen) {
		t.Fatalf("device saw LPNs %v on replay, %v originally", replaySeen, origSeen)
	}
}

// TestReplayRejectsBadTraces: every trace Replay cannot play is refused
// with an error naming the event, before any event is scheduled.
func TestReplayRejectsBadTraces(t *testing.T) {
	k, _, f := tenantRig(t, 1, nil)
	good := enqueued(10, 0, KindRead, 1, "")
	for name, trace := range map[string][]obs.Event{
		"empty":           nil,
		"host-cmd kind":   {good, {Time: 10, Kind: obs.KindHostCmd}},
		"command kind 3":  {good, enqueued(10, 0, 3, 1, "")},
		"command kind -1": {good, {Time: 10, Kind: obs.KindHostEnqueue, Cycles: -1}},
		"queue too high":  {good, enqueued(10, 1, KindRead, 1, "")},
		"negative queue":  {good, enqueued(10, -1, KindRead, 1, "")},
		"LPN past MaxInt": {good, enqueued(10, 0, KindRead, math.MaxInt+1, "")},
		"LPN MaxInt":      {good, enqueued(10, 0, KindRead, math.MaxInt, "")},
		"decreasing time": {good, enqueued(5, 0, KindRead, 2, "")},
		"negative time":   {enqueued(-1, 0, KindRead, 1, "")},
	} {
		// The bad event is always the last.
		want := fmt.Sprintf("event %d:", len(trace))
		if _, err := Replay(k, f, trace, nil); err == nil || len(trace) > 0 && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want a refusal naming %q", name, err, want)
		}
	}
	if k.Pending() != 0 {
		t.Errorf("refused traces left %d events scheduled", k.Pending())
	}
}

// FuzzReplay: whatever obs.ReadJSONL accepts, Replay either refuses
// before scheduling anything, or plays every command to termination and
// the frontend re-records the same host-enqueue fields, byte for byte.
// The seed corpus under testdata/fuzz holds the first lines of a
// `babolbench -ops 8 -record … workload` file, an escaped tenant, and
// one trace per refusal.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Zero device latency: a command enqueued at the end of time completes there.
		k, rerec := sim.NewKernel(), &obs.Buffer{}
		fr, err := NewFrontend(k, &fakeDrive{k: k}, FrontendConfig{
			Queues: []QueueConfig{{Depth: 2}, {Depth: 2}, {Depth: 2}, {Depth: 2}}, Record: rerec,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(k, fr, events, nil)
		if err != nil {
			if k.Pending() != 0 {
				t.Fatalf("refused (%v) with %d events scheduled", err, k.Pending())
			}
			return
		}
		k.Run()
		if res.Done() != len(events) || rerec.Len() != len(events) || !fr.Drained() {
			t.Fatalf("%d of %d commands terminated, %d re-recorded, drained %v", res.Done(), len(events), rerec.Len(), fr.Drained())
		}
		var want, got bytes.Buffer
		in, out := obs.NewJSONLWriter(&want), obs.NewJSONLWriter(&got)
		for i, e := range events {
			in.Event(enqueued(e.Time, e.Depth, Kind(e.Cycles), e.TxnID, e.Label))
			out.Event(rerec.Events()[i])
		}
		if in.Flush() != nil || out.Flush() != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("re-recorded\n%s\nwant\n%s", got.Bytes(), want.Bytes())
		}
	})
}
