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
// "exercises GC" example, so it must also report GC cycles.
func TestDriveGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden, args string
		gc           bool
	}{
		{"drive_rtos_random_read.golden", "-ctrl rtos -ways 8 -pattern random -kind read -ops 2000", false},
		{"drive_hw_random_write_gc.golden", "-ctrl hw -pattern random -kind write -ops 5000 -blocks 4", true},
		{"drive_coro_2ch_ecc_copyback.golden", "-ctrl coro -channels 2 -ways 4 -kind write -ecc -copyback -suspend-reads -ops 3000 -blocks 16", false},
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

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDriveReplaysJSONL pins `drive -replay`: it takes the hic JSONL that
// `-record` writes, sizes the frontend from the highest recorded queue,
// and refuses the retired text format at its first line (main turns the
// error into exit 1).
func TestDriveReplaysJSONL(t *testing.T) {
	path := writeFile(t, "cmds.jsonl",
		`{"at_ps":0,"queue":0,"tenant":"a","op":"write","lpn":5}`+"\n"+
			`{"at_ps":1000000,"queue":2,"tenant":"b","op":"read","lpn":5}`+"\n"+
			`{"at_ps":2000000,"queue":1,"op":"trim","lpn":6}`+"\n")
	out, err := runCLI(t, "-ctrl", "coro", "-ways", "2", "-qd", "4", "-replay", path, "drive")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "completed: 3/3 (0 failed)") {
		t.Errorf("replayed 3 commands, report says otherwise:\n%s", out)
	}

	text := writeFile(t, "old.trace", "0 read 5\n1 read 6\n")
	if _, err := runCLI(t, "-replay", text, "drive"); err == nil ||
		!strings.Contains(err.Error(), text) || !strings.Contains(err.Error(), "line 1:") {
		t.Errorf("text-format trace: %v, want an error naming the file and line 1", err)
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
		`{"at_ps":0,"queue":0,"op":"read","lpn":600}`+"\n"+
			`{"at_ps":0,"queue":0,"op":"read","lpn":601}`+"\n")
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
