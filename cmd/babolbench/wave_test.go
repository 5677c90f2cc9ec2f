package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The wave goldens are the stdout of the standalone wavedump command
// that `wave` replaced, byte for byte, for every op under RTOS and
// cache-read under Coro (wave_read.vcd.golden is its -vcd file for
// read). Never regenerate them from this code.
func TestWaveGoldens(t *testing.T) {
	for op := range waveOps {
		got, err := runCLI(t, "wave", op)
		if err != nil {
			t.Fatalf("wave %s: %v", op, err)
		}
		if want := golden(t, "wave_"+op+".golden"); got != want {
			t.Errorf("wave %s drifted from golden\n got:\n%s\nwant:\n%s", op, got, want)
		}
	}
	got, err := runCLI(t, "-ctrl", "coro", "wave", "cache-read")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "wave_cache-read_coro.golden"); got != want {
		t.Errorf("coro cache-read drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWaveVCD(t *testing.T) {
	path := filepath.Join(t.TempDir(), "read.vcd")
	out, err := runCLI(t, "-vcd", path, "wave", "read")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(golden(t, "wave_read.golden"), "\nONFI timing check",
		"\nVCD written to "+path+"\n\nONFI timing check", 1)
	if out != want {
		t.Errorf("stdout with -vcd:\n%s\nwant:\n%s", out, want)
	}
	vcd, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(vcd) != golden(t, "wave_read.vcd.golden") {
		t.Error("VCD file drifted from wave_read.vcd.golden")
	}
}
