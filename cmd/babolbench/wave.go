package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/babol"
	"repro/internal/onfi"
	"repro/internal/ssd"
	"repro/internal/wave"
)

// waveAddr is the seeded page the read ops target.
var waveAddr = onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 0}}

// waveOps builds each `babolbench wave` operation; id receives READ ID's
// bytes.
var waveOps = map[string]func(id *[]byte) babol.OpFunc{
	"read":       func(*[]byte) babol.OpFunc { return babol.ReadPage(waveAddr, 0, 16384) },
	"read-slc":   func(*[]byte) babol.OpFunc { return babol.ReadPageSLC(waveAddr, 0, 16384) },
	"read-fixed": func(*[]byte) babol.OpFunc { return babol.ReadPageFixedWait(waveAddr, 0, 16384, babol.Hynix().TR) },
	"program": func(*[]byte) babol.OpFunc {
		return babol.ProgramPage(onfi.Addr{Row: onfi.RowAddr{Block: 2}}, 0, 16384)
	},
	"erase":      func(*[]byte) babol.OpFunc { return babol.EraseBlock(3) },
	"cache-read": func(*[]byte) babol.OpFunc { return babol.CacheReadPages(onfi.RowAddr{Block: 1}, 3, 0, 16384) },
	"readid":     func(id *[]byte) babol.OpFunc { return babol.ReadID(id, 6) },
	"boot":       func(*[]byte) babol.OpFunc { return babol.BootSequence(babol.Hynix().IDBytes, 0x15) },
}

// waveOpNames lists the wave ops for usage and error text.
func waveOpNames() string {
	names := make([]string, 0, len(waveOps))
	for n := range waveOps {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// runWave is the `babolbench wave <op>` subcommand: run one flash
// operation on a two-LUN BABOL channel and print the captured channel
// waveform in logic-analyzer style, followed by the ONFI timing-rule
// verdict — the programmatic version of the paper's Figure 9 and Figure
// 11 screenshots. A timing violation is an error (exit 1).
func runWave(c *cli, out io.Writer) error {
	name := c.fs.Arg(1)
	env := babol.EnvRTOS
	if c.rig.Controller == ssd.CtrlBabolCoro {
		env = babol.EnvCoro
	}
	mhz, rate := c.rig.CPUMHz, c.rig.RateMT
	sys, err := babol.NewSystem(babol.SystemConfig{Ways: 2, Env: env, CPUMHz: mhz, RateMT: rate})
	if err != nil {
		return err
	}
	defer sys.Close()

	// Seed some data so reads return something real.
	page := make([]byte, 16384)
	for i := range page {
		page[i] = byte(i)
	}
	for p := 0; p < 4; p++ {
		if err := sys.Chip(0).SeedPage(onfi.RowAddr{Block: 1, Page: p}, page); err != nil {
			return err
		}
	}

	var id []byte
	var opErr error
	sys.Start(babol.OpRequest{Func: waveOps[name](&id), Chip: 0, Done: func(err error) { opErr = err }})
	sys.Run()
	if opErr != nil {
		return fmt.Errorf("operation failed: %w", opErr)
	}

	fmt.Fprintf(out, "=== %s on %s (%s @ %d MHz, %d MT/s) ===\n\n", name, babol.Hynix().Name, env, mhz, rate)
	pins := sys.Waveform().Events()
	fmt.Fprint(out, wave.Render(pins))
	if len(id) > 0 {
		fmt.Fprintf(out, "\nREAD ID bytes: % 02X\n", id)
	}

	if c.vcd != "" {
		f, err := os.Create(c.vcd)
		if err != nil {
			return err
		}
		if err := wave.WriteVCD(f, pins, sys.Chips()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nVCD written to %s\n", c.vcd)
	}

	chk := wave.NewChecker(onfi.DefaultTiming(), onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: rate})
	vs := chk.Check(pins)
	if len(vs) == 0 {
		fmt.Fprintln(out, "\nONFI timing check: PASS (no violations)")
		return nil
	}
	fmt.Fprintf(out, "\nONFI timing check: %d violations\n", len(vs))
	for _, v := range vs {
		fmt.Fprintln(out, "  ", v)
	}
	return fmt.Errorf("%s: %d ONFI timing violations", name, len(vs))
}
