package exp

import (
	"fmt"

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
	// Enumerate the full configuration grid first, then fan the
	// independent rigs out across the worker pool; out is indexed by
	// job, so results land in enumeration order at any worker count.
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
			for _, luns := range opt.WaysList {
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
	out := make([]Fig10Point, len(cfgs))
	err := sweep(opt, len(cfgs), func(i int, tracer obs.Tracer) error {
		c := cfgs[i]
		mbps, err := readThroughput(opt, ssd.BuildConfig{
			Params: c.params, Ways: c.luns, RateMT: c.rate,
			Controller: c.ctrl, CPUMHz: c.mhz,
		}, tracer, hic.Sequential, 2*c.luns)
		if err != nil {
			return fmt.Errorf("fig10 %s %dMT %v %dMHz %dLUN: %w",
				c.params.Name, c.rate, c.ctrl, c.mhz, c.luns, err)
		}
		out[i] = Fig10Point{
			Package: c.params.Name, RateMT: c.rate, Controller: c.ctrl,
			CPUMHz: c.mhz, LUNs: c.luns, MBps: mbps,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
// rows per LUN count.
func RenderFig10(points []Fig10Point) string {
	type key struct {
		pkg  string
		rate int
	}
	type cell struct {
		ctrl ssd.ControllerKind
		mhz  int
	}
	idx := map[key]map[int]map[cell]float64{}
	lunsSeen := map[key]map[int]bool{}
	for _, p := range points {
		k := key{p.Package, p.RateMT}
		if idx[k] == nil {
			idx[k] = map[int]map[cell]float64{}
			lunsSeen[k] = map[int]bool{}
		}
		if idx[k][p.LUNs] == nil {
			idx[k][p.LUNs] = map[cell]float64{}
		}
		mhz := p.CPUMHz
		if p.Controller == ssd.CtrlHW {
			mhz = 0
		}
		idx[k][p.LUNs][cell{p.Controller, mhz}] = p.MBps
		lunsSeen[k][p.LUNs] = true
	}

	var cols []cell
	cols = append(cols, cell{ssd.CtrlHW, 0})
	for _, mhz := range fig10CPUs {
		cols = append(cols, cell{ssd.CtrlBabolRTOS, mhz})
		cols = append(cols, cell{ssd.CtrlBabolCoro, mhz})
	}

	out := ""
	for _, preset := range nand.Presets() {
		for _, rate := range []int{100, 200} {
			k := key{preset.Name, rate}
			if idx[k] == nil {
				continue
			}
			header := fmt.Sprintf("%-5s", "LUNs")
			for _, c := range cols {
				name := "HW"
				if c.ctrl != ssd.CtrlHW {
					name = fmt.Sprintf("%s@%d", c.ctrl, c.mhz)
				}
				header += fmt.Sprintf(" %10s", name)
			}
			var rows []string
			for luns := 1; luns <= 16; luns++ {
				if !lunsSeen[k][luns] {
					continue
				}
				row := fmt.Sprintf("%-5d", luns)
				for _, c := range cols {
					if v, ok := idx[k][luns][c]; ok {
						row += fmt.Sprintf(" %10.1f", v)
					} else {
						row += fmt.Sprintf(" %10s", "-")
					}
				}
				rows = append(rows, row)
			}
			out += table(fmt.Sprintf("Fig 10: %s @ %d MT/s — read throughput (MB/s, channel ceiling %.0f MB/s)\n%s",
				preset.Name, rate, channelCeilingMBps(rate), header), rows)
			out += "\n"
		}
	}
	return out
}
