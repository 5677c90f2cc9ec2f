package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hic"
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
		if c.queues != 0 || c.arb != "rr" || c.record != "" || c.replay != "" {
			t.Errorf("workload defaults = queues %d arb %q record %q replay %q",
				c.queues, c.arb, c.record, c.replay)
		}
		if arb, err := arbitration(c.arb); err != nil || arb != hic.RoundRobin {
			t.Errorf("arbitration(%q) = %v, %v; want RoundRobin", c.arb, arb, err)
		}
	})

	t.Run("workload-flags", func(t *testing.T) {
		c := parse(t, "-queues", "2", "-arb", "wrr", "-record", "cmds.jsonl", "workload")
		if c.queues != 2 || c.record != "cmds.jsonl" {
			t.Errorf("queues=%d record=%q, want 2 and cmds.jsonl", c.queues, c.record)
		}
		if arb, err := arbitration(c.arb); err != nil || arb != hic.WeightedRoundRobin {
			t.Errorf("arbitration(%q) = %v, %v; want WeightedRoundRobin", c.arb, arb, err)
		}
		if _, err := arbitration("drr"); err == nil {
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

// TestWorkloadReplayRerecords: `-replay X -record Y workload` once
// exited 0 and wrote nothing, because only the sweep branch armed the
// recorder. A replay re-records, and the copy equals its input byte for
// byte.
func TestWorkloadReplayRerecords(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	run := func(args ...string) {
		t.Helper()
		c := newCLI(io.Discard)
		if err := c.fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := runWorkload(c, c.options(), io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	run("-ops", "8", "-record", first, "workload")
	run("-ops", "8", "-replay", first, "-record", second, "workload")
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
}
