package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/ssd"
)

// TestSelectors pins the enumerated flags: every documented value
// resolves, and anything else is an error — `-pattern zipf -kind erase`
// used to run sequential reads under a header that said otherwise.
func TestSelectors(t *testing.T) {
	c, p, k, err := selectors("coro", "random", "write")
	if err != nil || c != ssd.CtrlBabolCoro || p != hic.Random || k != hic.KindWrite {
		t.Errorf("selectors(coro, random, write) = %v, %v, %v, %v", c, p, k, err)
	}
	c, p, k, err = selectors("hw", "sequential", "read")
	if err != nil || c != ssd.CtrlHW || p != hic.Sequential || k != hic.KindRead {
		t.Errorf("selectors(hw, sequential, read) = %v, %v, %v, %v", c, p, k, err)
	}
	if c, _, _, err = selectors("rtos", "sequential", "read"); err != nil || c != ssd.CtrlBabolRTOS {
		t.Errorf("selectors(rtos, …) = %v, %v", c, err)
	}
	for _, bad := range [][3]string{
		{"fpga", "random", "read"},
		{"rtos", "zipf", "read"},
		{"rtos", "Random", "read"},
		{"rtos", "random", "erase"},
		{"rtos", "random", ""},
		{"rtos", "zipf", "erase"},
	} {
		if _, _, _, err := selectors(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("selectors(%q, %q, %q) accepted", bad[0], bad[1], bad[2])
		}
	}
}

// TestTraceFlagReplaysJSONL pins `ssdsim -trace`: it takes the hic JSONL that
// `babolbench -record` writes, sizes the frontend from the highest
// recorded queue, and refuses the retired text format at its first line
// (main turns the error into exit 1).
func TestTraceFlagReplaysJSONL(t *testing.T) {
	write := func(name, content string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	build := func() *ssd.Rig {
		rig, err := ssd.Build(ssd.BuildConfig{Ways: 2, Controller: ssd.CtrlBabolCoro})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rig.Close)
		return rig
	}

	rig := build()
	res, n, err := replay(rig, write("cmds.jsonl",
		`{"at_ps":0,"queue":0,"tenant":"a","op":"write","lpn":5}`+"\n"+
			`{"at_ps":1000000,"queue":2,"tenant":"b","op":"read","lpn":5}`+"\n"+
			`{"at_ps":2000000,"queue":1,"op":"trim","lpn":6}`+"\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if n != 3 || res.Completed != 3 || res.Failed != 0 {
		t.Errorf("replayed %d commands: %d completed, %d failed; want 3/3/0", n, res.Completed, res.Failed)
	}

	text := write("old.trace", "0 read 5\n1 read 6\n")
	if _, _, err := replay(build(), text, 4); err == nil ||
		!strings.Contains(err.Error(), text) || !strings.Contains(err.Error(), "line 1:") {
		t.Errorf("text-format trace: %v, want an error naming the file and line 1", err)
	}
	if _, _, err := replay(build(), filepath.Join(t.TempDir(), "missing.jsonl"), 4); err == nil {
		t.Error("missing trace file accepted")
	}
}
