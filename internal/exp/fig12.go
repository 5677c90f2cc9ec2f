package exp

import (
	"fmt"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Fig12Point is one bar of Figure 12: end-to-end bandwidth through the
// full SSD (HIC + FTL + controller) for one controller and way count.
type Fig12Point struct {
	Pattern    hic.Pattern
	Controller ssd.ControllerKind
	Ways       int
	MBps       float64
}

// fig12Ways are the ways (LUNs) swept, 1 to 8 as in the paper.
var fig12Ways = []int{1, 2, 4, 8}

// Fig12 reproduces Figure 12: the Cosmos+ OpenSSD with its controller
// swapped. A fio-like generator issues sequential and random READ
// workloads through the whole SSD stack against Hynix packages at 1 GHz,
// varying the ways (LUNs) from 1 to 8. The baseline is the hardware
// controller; the paper's headline numbers at 8 ways are RTOS −2 %
// (seq) / −3 % (rand) and Coro −8 % / −9 %.
func Fig12(opt Options) ([]Fig12Point, error) {
	opt = opt.withDefaults()
	var cfgs []Fig12Point
	for _, pattern := range []hic.Pattern{hic.Sequential, hic.Random} {
		for _, w := range fig12Ways {
			for _, kind := range []ssd.ControllerKind{ssd.CtrlHW, ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro} {
				cfgs = append(cfgs, Fig12Point{Pattern: pattern, Controller: kind, Ways: w})
			}
		}
	}
	params := shrink(nand.Hynix(), opt.Blocks)
	return sweep(opt, cfgs, func(p Fig12Point, tracer obs.Tracer) (Fig12Point, error) {
		var err error
		p.MBps, err = readThroughput(opt, ssd.BuildConfig{
			Params: params, Ways: p.Ways, RateMT: 200,
			Controller: p.Controller, CPUMHz: 1000,
		}, tracer, p.Pattern, 4*p.Ways)
		if err != nil {
			return p, fmt.Errorf("fig12 %v %v %dway: %w", p.Pattern, p.Controller, p.Ways, err)
		}
		return p, nil
	})
}

// Fig12CSV renders the end-to-end sweep as machine-readable CSV.
func Fig12CSV(points []Fig12Point) string {
	out := "pattern,controller,ways,mbps\n"
	for _, p := range points {
		out += fmt.Sprintf("%s,%s,%d,%.2f\n", p.Pattern, p.Controller, p.Ways, p.MBps)
	}
	return out
}

// RenderFig12 formats the end-to-end comparison with deltas versus the
// hardware baseline (the paper's headline metric). It reads the points
// in the order Fig12 emits them: a new panel starts when the pattern
// changes, and a new row when the way count does.
func RenderFig12(points []Fig12Point) string {
	out := ""
	for i := 0; i < len(points); {
		panel := points[i:runEnd(points, i, func(a, b Fig12Point) bool { return a.Pattern == b.Pattern })]
		header := fmt.Sprintf("%-5s %10s %10s %8s %10s %8s", "ways", "HW", "RTOS", "ΔRTOS", "Coro", "ΔCoro")
		var rows []string
		for j := 0; j < len(panel); {
			k := runEnd(panel, j, func(a, b Fig12Point) bool { return a.Ways == b.Ways })
			v := map[ssd.ControllerKind]float64{}
			for _, p := range panel[j:k] {
				v[p.Controller] = p.MBps
			}
			hw, rtos, coro := v[ssd.CtrlHW], v[ssd.CtrlBabolRTOS], v[ssd.CtrlBabolCoro]
			rows = append(rows, fmt.Sprintf("%-5d %10.1f %10.1f %8s %10.1f %8s",
				panel[j].Ways, hw, rtos, pct(rtos, hw), coro, pct(coro, hw)))
			j = k
		}
		out += table(fmt.Sprintf("Fig 12: end-to-end %s READ bandwidth (MB/s), Hynix @ 200 MT/s, 1 GHz\n%s",
			panel[0].Pattern, header), rows)
		out += "\n"
		i += len(panel)
	}
	return out
}
