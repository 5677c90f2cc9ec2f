package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/obs"
)

// runCLI is main without the process: parse and validate args, then run
// the subcommand with its report captured.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	c := newCLI(io.Discard)
	if err := c.fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	if err := c.validate(); err != nil {
		t.Fatalf("validate %v: %v", args, err)
	}
	var out bytes.Buffer
	err := c.run(c.fs.Arg(0), c.options(), &out)
	return out.String(), err
}

// The drive goldens are the stdout of the standalone ssdsim command that
// `drive` replaced, for the same flags, with only the header's first
// word renamed: the fold into babolbench moved no number. Never
// regenerate them from this code. The hw row is the package comment's
// "exercises GC" example, so it must also report GC cycles. The 2-channel
// hw row was recorded later from this command: it pins the multi-channel
// HW path, where the BABOL-only -copyback and -suspend-reads are ignored.
func TestDriveGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden, args string
		gc           bool
	}{
		{"drive_rtos_random_read.golden", "-ctrl rtos -ways 8 -pattern random -kind read -ops 2000", false},
		{"drive_hw_random_write_gc.golden", "-ctrl hw -pattern random -kind write -ops 5000 -blocks 4", true},
		{"drive_coro_2ch_ecc_copyback.golden", "-ctrl coro -channels 2 -ways 4 -kind write -ecc -copyback -suspend-reads -ops 3000 -blocks 16", false},
		{"drive_hw_2ch_copyback_ignored.golden", "-ctrl hw -channels 2 -ways 4 -kind write -copyback -suspend-reads -ops 3000 -blocks 16", false},
	} {
		got, err := runCLI(t, append(strings.Fields(tc.args), "drive")...)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if want := golden(t, tc.golden); got != want {
			t.Errorf("%s drifted from %s\n got:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
		}
		if tc.gc && strings.Contains(got, "GC cycles 0,") {
			t.Errorf("%s: no GC cycles, yet it is the example that exercises GC", tc.args)
		}
	}
}

// TestDriveRefusesChannelShape: a shape the rig cannot build is an error
// naming the flag's field, which main turns into exit 1. -channels -1
// once panicked sizing DRAM, and -ways 17 once exited 0 after every op
// on way 16 failed, because a 16-bit chip mask cannot select it. A zero
// is no such shape: it takes Build's default, which sizes the stream and
// heads the report.
func TestDriveRefusesChannelShape(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-ways 17 -pattern random -ops 400", "Ways 17"},
		{"-channels -1 -ops 8", "Channels -1"},
	} {
		if _, err := runCLI(t, append(strings.Fields(tc.args), "drive")...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s drive: %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct{ args, want string }{
		{"-ways 0 -ops 8", "1 ch × 8 ways"},
		{"-channels 0 -ways 2 -ops 8", "1 ch × 2 ways"},
	} {
		out, err := runCLI(t, append(strings.Fields(tc.args), "drive")...)
		if err != nil || !strings.Contains(out, tc.want) || !strings.Contains(out, "completed: 8/8 (0 failed)") {
			t.Errorf("%s drive: %v, want a clean run on %q:\n%s", tc.args, err, tc.want, out)
		}
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDriveReplaysJSONL pins `drive -replay`: it takes the host-enqueue
// events that `-record` writes, sizes the frontend from the highest
// recorded queue, and refuses, naming the file (main turns the error
// into exit 1): both retired formats at their first line, a queue
// index past NVMe's 65,536, which once sized a frontend of 2^40 queues
// and ran the process out of memory, and a file with no events, which
// once ran the synthetic stream and reported it as the replay.
func TestDriveReplaysJSONL(t *testing.T) {
	path := writeFile(t, "cmds.jsonl",
		`{"t":0,"kind":"host-enqueue","txn":5,"chip":-1,"cycles":1,"label":"a"}`+"\n"+
			`{"t":1000000,"kind":"host-enqueue","txn":5,"chip":-1,"depth":2,"label":"b"}`+"\n"+
			`{"t":2000000,"kind":"host-enqueue","txn":6,"chip":-1,"depth":1,"cycles":2}`+"\n")
	out, err := runCLI(t, "-ctrl", "coro", "-ways", "2", "-qd", "4", "-replay", path, "drive")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "completed: 3/3 (0 failed)") {
		t.Errorf("replayed 3 commands, report says otherwise:\n%s", out)
	}

	for _, tc := range []struct{ name, in, where string }{
		{"text", "0 read 5\n1 read 6\n", "line 1:"},
		{"at_ps", `{"at_ps":0,"queue":1099511627776,"op":"read","lpn":1}` + "\n", "line 1:"},
		{"queue", `{"t":0,"kind":"host-enqueue","txn":1,"chip":-1,"depth":65536}` + "\n", "event 1:"},
		{"empty", "", "no events"},
		{"blank", "\n\n", "no events"},
	} {
		bad := writeFile(t, tc.name+".jsonl", tc.in)
		if _, err := runCLI(t, "-replay", bad, "drive"); err == nil ||
			!strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), tc.where) {
			t.Errorf("%s trace: %v, want an error naming the file and %q", tc.name, err, tc.where)
		}
	}
	if _, err := runCLI(t, "-replay", filepath.Join(t.TempDir(), "missing.jsonl"), "drive"); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestDriveReplayPreloadsTraceSpan: a replay preloads every page its
// trace touches, not the synthetic working set (64 pages per LUN), so
// reads past that set reach flash — two reads at LPN 600/601 once
// completed instantly from unmapped pages and reported p50 0s — and the
// header names the trace, not the unused -pattern/-kind.
func TestDriveReplayPreloadsTraceSpan(t *testing.T) {
	path := writeFile(t, "far.jsonl",
		`{"t":0,"kind":"host-enqueue","txn":600,"chip":-1}`+"\n"+
			`{"t":0,"kind":"host-enqueue","txn":601,"chip":-1}`+"\n")
	out, err := runCLI(t, "-replay", path, "drive")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "drive: replay of "+path+" on Hynix") {
		t.Errorf("header does not name the trace:\n%s", out)
	}
	if strings.Contains(out, "p50 0s") || !strings.Contains(out, "completed: 2/2 (0 failed)") {
		t.Errorf("reads beyond the synthetic working set did not reach flash:\n%s", out)
	}
}

// TestDriveTraceAnalyzes: `-trace t.jsonl drive` then `analyze t.jsonl`
// — drive goes through the one rig-config path, so its event stream is
// a trace like any figure's, with no protocol violations.
func TestDriveTraceAnalyzes(t *testing.T) {
	c := newCLI(io.Discard)
	if err := c.fs.Parse([]string{"-ops", "16", "drive"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLWriter(&buf)
	opt := c.options()
	opt.Tracer = sink
	if err := c.run("drive", opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := analyze.Analyze(events)
	if len(res.Runs) != 1 || len(res.Violations) != 0 {
		t.Errorf("drive trace: %d runs, %d protocol violations; want 1 and 0", len(res.Runs), len(res.Violations))
	}
}
