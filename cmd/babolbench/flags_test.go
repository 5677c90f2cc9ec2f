package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/ssd"
)

// TestFlagParsing pins the CLI resolution rules: how flags land in
// exp.Options, and which values are refused before anything runs.
func TestFlagParsing(t *testing.T) {
	parse := func(t *testing.T, args ...string) *cli {
		t.Helper()
		c := newCLI(io.Discard)
		if err := c.fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return c
	}

	t.Run("defaults", func(t *testing.T) {
		c := parse(t, "fig10")
		opt := c.options()
		// -parallel 0 resolves inside the exp runner; the option must
		// pass through unmodified so that resolution stays in one place.
		if c.parallel != 0 || opt.Parallel != 0 {
			t.Errorf("default parallel = %d (opt %d), want 0", c.parallel, opt.Parallel)
		}
		if err := c.validate(); err != nil {
			t.Errorf("defaults rejected: %v", err)
		}
		if c.fs.Arg(0) != "fig10" {
			t.Errorf("positional arg = %q, want fig10", c.fs.Arg(0))
		}
	})

	// -seeds sizes the chaos seed list; a count below 1 used to reach
	// make() and panic.
	t.Run("seeds-below-one", func(t *testing.T) {
		for _, n := range []string{"-1", "0"} {
			if err := parse(t, "-seeds", n, "chaos").validate(); err == nil {
				t.Errorf("-seeds %s accepted", n)
			}
		}
		if err := parse(t, "-seeds", "1", "chaos").validate(); err != nil {
			t.Errorf("-seeds 1 rejected: %v", err)
		}
	})

	// -ops -5 once printed a 4-read Fig 11 and exited 0, or failed from
	// inside a sweep.
	t.Run("ops-below-one", func(t *testing.T) {
		for _, line := range []string{"-ops -5 -blocks 16 fig11", "-ops 0 fig12", "-ops -1 drive"} {
			if err := parse(t, strings.Fields(line)...).validate(); err == nil {
				t.Errorf("%s accepted", line)
			}
		}
		if err := parse(t, "-ops", "1", "fig11").validate(); err != nil {
			t.Errorf("-ops 1 rejected: %v", err)
		}
	})

	// -parallel -3 once meant one worker per CPU, like -parallel 0.
	t.Run("parallel-negative", func(t *testing.T) {
		if err := parse(t, "-parallel", "-3", "fig10").validate(); err == nil {
			t.Error("-parallel -3 accepted")
		}
		if err := parse(t, "-parallel", "0", "fig10").validate(); err != nil {
			t.Errorf("-parallel 0 rejected: %v", err)
		}
	})

	t.Run("mapcache", func(t *testing.T) {
		// Default keeps the whole map resident (legacy, byte-identical
		// figures); an explicit budget threads through to every rig.
		if opt := parse(t, "fig10").options(); opt.MapCacheBytes != 0 {
			t.Errorf("default MapCacheBytes = %d, want 0 (cache disabled)", opt.MapCacheBytes)
		}
		opt := parse(t, "-mapcache", "65536", "fig10").options()
		if opt.MapCacheBytes != 65536 {
			t.Errorf("MapCacheBytes = %d, want 65536", opt.MapCacheBytes)
		}
	})

	t.Run("parallel-explicit", func(t *testing.T) {
		c := parse(t, "-parallel", "3", "-ops", "12", "all")
		opt := c.options()
		if opt.Parallel != 3 || opt.Ops != 12 {
			t.Errorf("Parallel=%d Ops=%d, want 3 and 12", opt.Parallel, opt.Ops)
		}
	})

	t.Run("workload-defaults", func(t *testing.T) {
		c := parse(t, "workload")
		if c.queues != 0 || c.arb != hic.RoundRobin || c.record != "" || c.replay != "" {
			t.Errorf("workload defaults = queues %d arb %v record %q replay %q",
				c.queues, c.arb, c.record, c.replay)
		}
	})

	t.Run("workload-flags", func(t *testing.T) {
		c := parse(t, "-queues", "2", "-arb", "wrr", "-record", "cmds.jsonl", "workload")
		if c.queues != 2 || c.record != "cmds.jsonl" {
			t.Errorf("queues=%d record=%q, want 2 and cmds.jsonl", c.queues, c.record)
		}
		if c.arb != hic.WeightedRoundRobin {
			t.Errorf("-arb wrr = %v, want WeightedRoundRobin", c.arb)
		}
		if err := newCLI(io.Discard).fs.Parse([]string{"-arb", "drr", "workload"}); err == nil {
			t.Error("unknown arbitration accepted")
		}
	})

	t.Run("bad-flag", func(t *testing.T) {
		c := newCLI(io.Discard)
		if err := c.fs.Parse([]string{"-no-such-flag"}); err == nil {
			t.Error("unknown flag parsed without error")
		}
	})
}

// TestSelectors pins the enumerated flags: every documented value
// resolves, and anything else fails to parse (exit 2) — `-pattern zipf
// -kind erase` once ran sequential reads under a header that said
// otherwise, and an unknown wave environment once ran RTOS.
func TestSelectors(t *testing.T) {
	parse := func(args ...string) (*cli, error) {
		c := newCLI(io.Discard)
		return c, c.fs.Parse(append(args, "drive"))
	}
	c, err := parse("-ctrl", "coro", "-pattern", "random", "-kind", "write")
	if err != nil || c.rig.Controller != ssd.CtrlBabolCoro || c.load.Pattern != hic.Random || c.load.Kind != hic.KindWrite {
		t.Errorf("coro, random, write = %v, %v, %v, %v", c.rig.Controller, c.load.Pattern, c.load.Kind, err)
	}
	c, err = parse("-ctrl", "hw", "-pattern", "sequential", "-kind", "read")
	if err != nil || c.rig.Controller != ssd.CtrlHW || c.load.Pattern != hic.Sequential || c.load.Kind != hic.KindRead {
		t.Errorf("hw, sequential, read = %v, %v, %v, %v", c.rig.Controller, c.load.Pattern, c.load.Kind, err)
	}
	if c, err = parse("-ctrl", "rtos", "-pattern", "sequential", "-kind", "read"); err != nil || c.rig.Controller != ssd.CtrlBabolRTOS {
		t.Errorf("rtos, … = %v, %v", c.rig.Controller, err)
	}
	for _, bad := range [][3]string{
		{"fpga", "random", "read"},
		{"rtos", "zipf", "read"},
		{"rtos", "Random", "read"},
		{"rtos", "random", "erase"},
		{"rtos", "random", ""},
		{"rtos", "zipf", "erase"},
	} {
		if _, err := parse("-ctrl", bad[0], "-pattern", bad[1], "-kind", bad[2]); err == nil {
			t.Errorf("-ctrl %q -pattern %q -kind %q accepted", bad[0], bad[1], bad[2])
		}
	}
	if _, err := parse("-package", "Samsung"); err == nil {
		t.Error("unknown -package accepted")
	}
}

// TestValidate pins the one rule every command line passes before it
// runs: a flag is refused on a subcommand that never reads it (`all`
// reads what its members read), as are a missing or unknown subcommand,
// a wrong operand count, and a controller wave cannot trace. The
// accepted rows include every babolbench command line CI and the
// verification recipes run.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		// Shrunk-geometry experiments ignore -blocks.
		{"-blocks 16 chaos", false},
		{"-blocks 16 mapcache", false},
		{"-blocks 16 workload", false},
		// The sweep sets its own budgets.
		{"-mapcache 4096 mapcache", false},
		// Workload- and chaos-only flags.
		{"-queues 2 fig10", false},
		{"-arb wrr chaos", false},
		{"-record x.jsonl drive", false},
		{"-seeds 3 fig10", false},
		// Drive flags on a figure, and wave's limits.
		{"-ctrl hw fig12", false},
		{"-qd 4 all", false},
		{"-ctrl hw wave erase", false},
		{"-trace t.jsonl wave read", false},
		{"-parallel 2 drive", false},
		{"wave smear", false},
		{"wave", false},
		{"analyze", false},
		{"fig10 extra", false},
		{"fig13", false},
		{"", false},
		// What each subcommand reads.
		{"-ctrl hw -ways 4 -qd 8 -mapcache 4096 -trace t.jsonl -http :0 drive", true},
		{"-ctrl coro -mhz 150 -mt 100 -vcd r.vcd wave cache-read", true},
		{"-csv -blocks 16 -mapcache 4096 all", true},
		{"-ctrl rtos -ways 8 -pattern random -kind read -ops 2000 drive", true},
		{"-ctrl hw -pattern random -kind write -ops 5000 -blocks 4 drive", true},
		{"analyze cmd/babolbench/testdata/mini.jsonl", true},
		{"-csv analyze cmd/babolbench/testdata/mini.jsonl", true},
		{"-ops 240 -seeds 12 -parallel 4 chaos", true},
		{"-ops 120 -seeds 6 -parallel 4 -mapcache 2048 chaos", true},
		{"-ops 24 -parallel 4 -arb wrr -queues 2 workload", true},
		{"-ops 24 -parallel 4 -record /tmp/tenants.jsonl workload", true},
		{"-replay /tmp/tenants.jsonl -record /tmp/tenants2.jsonl workload", true},
		{"-replay /tmp/tenants.jsonl drive", true},
		{"-ops 16 -trace /tmp/drive.jsonl drive", true},
		{"-vcd /tmp/read.vcd wave read", true},
		{"-ops 40 -blocks 16 -trace /tmp/t.jsonl split", true},
		{"-csv -ops 24 -blocks 16 -parallel 1 -trace /tmp/a.jsonl fig10", true},
		{"-ops 240 -seeds 6 -trace /tmp/c.jsonl chaos", true},
		{"-http 127.0.0.1:16060 -ops 240 fig10", true},
		{"-csv -ops 24 -parallel 1 -trace /tmp/w1.jsonl workload", true},
	} {
		c := newCLI(io.Discard)
		if err := c.fs.Parse(strings.Fields(tc.line)); err != nil {
			t.Fatalf("parse %q: %v", tc.line, err)
		}
		if err := c.validate(); (err == nil) != tc.ok {
			t.Errorf("validate %q = %v, want ok=%v", tc.line, err, tc.ok)
		}
	}
}

// TestFlagUseCoversEveryFlag: a flag missing from flagUse would be
// refused everywhere, so every defined flag names its readers.
func TestFlagUseCoversEveryFlag(t *testing.T) {
	newCLI(io.Discard).fs.VisitAll(func(f *flag.Flag) {
		if flagUse[f.Name] == "" {
			t.Errorf("-%s is read by no subcommand", f.Name)
		}
		for _, sub := range strings.Fields(flagUse[f.Name]) {
			if _, ok := operands[sub]; !ok {
				t.Errorf("-%s: reader %q is not a subcommand", f.Name, sub)
			}
		}
	})
}

// TestWorkloadReplayRerecords: `-replay X -record Y workload` once
// exited 0 and wrote nothing, because only the sweep branch armed the
// recorder. A replay re-records, the copy equals its input byte for
// byte, and a replay that fails leaves no file, not a truncated one. Its
// reports on the drive and the tenant rig are pinned whatever the
// recording's format (replay_*.golden; the temporary path reads as
// "rec.jsonl").
func TestWorkloadReplayRerecords(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "rec.jsonl"), filepath.Join(dir, "copy.jsonl")
	if _, err := runCLI(t, "-ops", "24", "-record", first, "workload"); err != nil {
		t.Fatal(err)
	}
	for sub, args := range map[string][]string{
		"drive":    {"-replay", first, "drive"},
		"workload": {"-replay", first, "-record", second, "workload"},
	} {
		got, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got, want := strings.ReplaceAll(got, first, "rec.jsonl"), golden(t, "replay_"+sub+".golden"); got != want {
			t.Errorf("replay on %s drifted\n got:\n%s\nwant:\n%s", sub, got, want)
		}
	}
	want, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(second)
	if err != nil {
		t.Fatalf("replay wrote no recording: %v", err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("re-recorded replay is %d bytes, the %d-byte recording it replayed differs", len(got), len(want))
	}
	bad, none := writeFile(t, "bad.jsonl", `{"t":0,"kind":"host-enqueue","chip":-1,"depth":9}`+"\n"), filepath.Join(dir, "none.jsonl")
	if _, err := runCLI(t, "-replay", bad, "-record", none, "workload"); err == nil {
		t.Error("replayed queue 9 on a 4-queue frontend")
	} else if _, err := os.Stat(none); err == nil {
		t.Error("a failed replay left a recording behind")
	}
}
