package hic

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestReadJSONLValidation(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad json":       "{not json}\n",
		"bad op":         `{"at_ps":0,"queue":0,"op":"erase","lpn":1}` + "\n",
		"negative lpn":   `{"at_ps":0,"queue":0,"op":"read","lpn":-1}` + "\n",
		"negative queue": `{"at_ps":0,"queue":-1,"op":"read","lpn":1}` + "\n",
		"decreasing": `{"at_ps":10,"queue":0,"op":"read","lpn":1}` + "\n" +
			`{"at_ps":5,"queue":0,"op":"read","lpn":2}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := `{"at_ps":0,"queue":0,"tenant":"a","op":"read","lpn":1}` + "\n" +
		"\n" + // blank lines are skipped
		`{"at_ps":5,"queue":1,"op":"trim","lpn":2}` + "\n"
	entries, err := ReadJSONL(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Tenant != "a" || entries[1].Op != "trim" {
		t.Fatalf("entries = %+v", entries)
	}
}

// TestReadJSONLRejectsTextTrace: the retired `<us> <op> <lpn>` text
// format (and its one-letter ops) must fail loudly at its first line,
// not parse as an empty or partial trace.
func TestReadJSONLRejectsTextTrace(t *testing.T) {
	for _, in := range []string{
		"0 read 5\n12.5 write 3\n",
		"# host trace\n0 read 5\n",
		`{"at_ps":0,"queue":0,"op":"r","lpn":5}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("ReadJSONL(%q) = %v, want an error naming line 1", in, err)
		}
	}
}

// FuzzReadJSONL: the one trace parser never panics, and whatever it
// accepts satisfies what Replay relies on — known ops, non-negative
// fields, non-decreasing arrivals — and survives WriteJSONL → ReadJSONL
// unchanged. The seed corpus under testdata/fuzz holds the line shapes
// of a `babolbench -ops 8 -record … workload` file, TestReadJSONLValidation's
// cases, and near misses of the format (the retired text format among
// them).
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			// Re-encoding escapes up to sixfold; keep every line inside
			// the reader's 1 MiB line limit.
			t.Skip()
		}
		entries, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if entries != nil {
				t.Fatalf("ReadJSONL returned %d entries with error %v", len(entries), err)
			}
			return
		}
		if len(entries) == 0 {
			t.Fatal("ReadJSONL accepted a trace with no commands")
		}
		var last int64
		for i, e := range entries {
			if _, ok := KindFromString(e.Op); !ok {
				t.Fatalf("entry %d: accepted unknown op %q", i, e.Op)
			}
			if e.AtPs < 0 || e.Queue < 0 || e.LPN < 0 {
				t.Fatalf("entry %d: accepted a negative field: %+v", i, e)
			}
			if e.AtPs < last {
				t.Fatalf("entry %d: arrival %d after %d", i, e.AtPs, last)
			}
			last = e.AtPs
		}
		var buf bytes.Buffer
		if err := (&Recorder{entries: entries}).WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil || !slices.Equal(back, entries) {
			t.Fatalf("round trip of %+v through %q: %+v, %v", entries, buf.Bytes(), back, err)
		}
	})
}

func TestRecorderJSONLRoundTrip(t *testing.T) {
	rec := &Recorder{}
	rec.record(0, 0, Command{Kind: KindRead, LPN: 3, Tenant: "x"})
	rec.record(7, 1, Command{Kind: KindWrite, LPN: 4})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	for i, want := range rec.Entries() {
		if entries[i] != want {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], want)
		}
	}
}

// TestReplayReproducesStream is the replay-exactness contract at unit
// scale: record a closed-loop tenant run, replay it open loop on a
// fresh identical rig, and both the re-recorded stream and the
// device-level submission stream match the original.
func TestReplayReproducesStream(t *testing.T) {
	run := func(entries []RecordEntry) (*Recorder, []int, *Result) {
		rec := &Recorder{}
		k, d, f := tenantRig(t, 2, rec)
		var res *Result
		if entries == nil {
			if _, err := RunTenants(k, f, []TenantSpec{
				{Name: "a", Queue: 0, QueueDepth: 3, NumOps: 25, SlicePages: 16, Seed: 1},
				{Name: "b", Queue: 1, QueueDepth: 2, NumOps: 25, Pattern: Sequential,
					Mix: Mix{ReadPct: 60, WritePct: 40}, SliceStart: 16, SlicePages: 16, Seed: 2},
			}, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			res, err = Replay(k, f, entries, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		return rec, d.seen, res
	}

	orig, origSeen, _ := run(nil)
	rerec, replaySeen, res := run(orig.Entries())

	if res.Done() != orig.Len() || res.Failed != 0 {
		t.Fatalf("replay result: %+v", res)
	}
	if len(rerec.Entries()) != len(orig.Entries()) {
		t.Fatalf("re-recorded %d entries, want %d", len(rerec.Entries()), len(orig.Entries()))
	}
	for i, want := range orig.Entries() {
		if rerec.Entries()[i] != want {
			t.Fatalf("re-recorded entry %d = %+v, want %+v", i, rerec.Entries()[i], want)
		}
	}
	if len(replaySeen) != len(origSeen) {
		t.Fatalf("device saw %d submissions on replay, %d originally", len(replaySeen), len(origSeen))
	}
	for i := range origSeen {
		if replaySeen[i] != origSeen[i] {
			t.Fatalf("device submission %d: replay LPN %d, original %d", i, replaySeen[i], origSeen[i])
		}
	}
}

func TestReplayRejectsBadTraces(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: sim.Microsecond}
	f, err := NewFrontend(k, d, FrontendConfig{Queues: []QueueConfig{{Depth: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(k, f, nil, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Replay(k, f, []RecordEntry{{Queue: 3, Op: "read"}}, nil); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if _, err := Replay(k, f, []RecordEntry{{Queue: -1, Op: "read"}}, nil); err == nil {
		t.Error("negative queue accepted")
	}
	if _, err := Replay(k, f, []RecordEntry{{Op: "erase"}}, nil); err == nil {
		t.Error("unknown op accepted (it used to replay as a read)")
	}
	if k.Pending() != 0 {
		t.Errorf("rejected traces left %d events scheduled", k.Pending())
	}
}
