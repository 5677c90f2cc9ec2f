package exp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Fig10Point is one bar of Figure 10: read throughput for a package ×
// channel rate × controller × CPU frequency × LUN count.
type Fig10Point struct {
	Package    string
	RateMT     int
	Controller ssd.ControllerKind
	CPUMHz     int // 0 for the hardware baseline
	LUNs       int
	MBps       float64
}

// fig10CPUs are the firmware clocks swept for the software controllers:
// the 150 MHz soft-core case and the scaled ARM cases up to 1 GHz.
var fig10CPUs = []int{150, 200, 400, 1000}

// fig10LUNs are the LUN counts per channel swept (capped per package).
var fig10LUNs = []int{2, 4, 8}

// Fig10 reproduces Figure 10: a read-only workload injected at the FTL
// boundary against every package preset, at 100 and 200 MT/s, for the
// hardware baseline and both BABOL software environments across CPU
// frequencies, varying the number of LUNs per channel. The expected
// shape: throughput rises with LUNs until the channel saturates; the
// hardware controller is frequency-independent; RTOS matches it from
// ≈200 MHz up; the coroutine environment needs a fast CPU, and on slow
// clocks it starves the channel.
func Fig10(opt Options) ([]Fig10Point, error) {
	opt = opt.withDefaults()
	type cfg struct {
		params nand.Params
		rate   int
		luns   int
		ctrl   ssd.ControllerKind
		mhz    int
	}
	var cfgs []cfg
	for _, preset := range nand.Presets() {
		params := shrink(preset, opt.Blocks)
		for _, rate := range []int{100, 200} {
			for _, luns := range fig10LUNs {
				if luns > preset.LUNsPerChannel {
					continue // the Micron module is wired for 2 LUNs only
				}
				cfgs = append(cfgs, cfg{params, rate, luns, ssd.CtrlHW, 1000})
				for _, mhz := range fig10CPUs {
					cfgs = append(cfgs, cfg{params, rate, luns, ssd.CtrlBabolRTOS, mhz})
					cfgs = append(cfgs, cfg{params, rate, luns, ssd.CtrlBabolCoro, mhz})
				}
			}
		}
	}
	return sweep(opt, cfgs, func(c cfg, tracer obs.Tracer) (Fig10Point, error) {
		mbps, err := readThroughput(opt, ssd.BuildConfig{
			Params: c.params, Ways: c.luns, RateMT: c.rate,
			Controller: c.ctrl, CPUMHz: c.mhz,
		}, tracer, hic.Sequential, 2*c.luns)
		if err != nil {
			return Fig10Point{}, fmt.Errorf("fig10 %s %dMT %v %dMHz %dLUN: %w",
				c.params.Name, c.rate, c.ctrl, c.mhz, c.luns, err)
		}
		return Fig10Point{
			Package: c.params.Name, RateMT: c.rate, Controller: c.ctrl,
			CPUMHz: c.mhz, LUNs: c.luns, MBps: mbps,
		}, nil
	})
}

// Fig10CSV renders the sweep as machine-readable CSV for plotting.
func Fig10CSV(points []Fig10Point) string {
	out := "package,rate_mt,controller,cpu_mhz,luns,mbps\n"
	for _, p := range points {
		mhz := p.CPUMHz
		if p.Controller == ssd.CtrlHW {
			mhz = 0
		}
		out += fmt.Sprintf("%s,%d,%s,%d,%d,%.2f\n",
			p.Package, p.RateMT, p.Controller, mhz, p.LUNs, p.MBps)
	}
	return out
}

// RenderFig10 formats the Figure 10 sweep grouped like the paper's
// panels: one block per (package, rate), columns per controller/CPU,
// rows per LUN count. It reads the points in the order Fig10 emits
// them: a new panel starts when the package or rate changes, and a new
// row when the LUN count does.
func RenderFig10(points []Fig10Point) string {
	type cell struct {
		ctrl ssd.ControllerKind
		mhz  int
	}
	cols := []cell{{ssd.CtrlHW, 0}}
	header := fmt.Sprintf("%-5s %10s", "LUNs", "HW")
	for _, mhz := range fig10CPUs {
		for _, ctrl := range []ssd.ControllerKind{ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro} {
			cols = append(cols, cell{ctrl, mhz})
			header += fmt.Sprintf(" %10s", fmt.Sprintf("%s@%d", ctrl, mhz))
		}
	}
	out := ""
	for i := 0; i < len(points); {
		panel := points[i:runEnd(points, i, func(a, b Fig10Point) bool {
			return a.Package == b.Package && a.RateMT == b.RateMT
		})]
		var rows []string
		for j := 0; j < len(panel); {
			k := runEnd(panel, j, func(a, b Fig10Point) bool { return a.LUNs == b.LUNs })
			cells := slices.Repeat([]string{fmt.Sprintf(" %10s", "-")}, len(cols))
			for _, p := range panel[j:k] {
				mhz := p.CPUMHz
				if p.Controller == ssd.CtrlHW {
					mhz = 0
				}
				if c := slices.Index(cols, cell{p.Controller, mhz}); c >= 0 {
					cells[c] = fmt.Sprintf(" %10.1f", p.MBps)
				}
			}
			rows = append(rows, fmt.Sprintf("%-5d", panel[j].LUNs)+strings.Join(cells, ""))
			j = k
		}
		out += table(fmt.Sprintf("Fig 10: %s @ %d MT/s — read throughput (MB/s, channel ceiling %.0f MB/s)\n%s",
			panel[0].Package, panel[0].RateMT, channelCeilingMBps(panel[0].RateMT), header), rows)
		out += "\n"
		i += len(panel)
	}
	return out
}
