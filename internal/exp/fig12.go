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

// Fig12 reproduces Figure 12: the Cosmos+ OpenSSD with its controller
// swapped. A fio-like generator issues sequential and random READ
// workloads through the whole SSD stack against Hynix packages at 1 GHz,
// varying the ways (LUNs) from 1 to 8. The baseline is the hardware
// controller; the paper's headline numbers at 8 ways are RTOS −2 %
// (seq) / −3 % (rand) and Coro −8 % / −9 %.
func Fig12(opt Options) ([]Fig12Point, error) {
	opt = opt.withDefaults()
	ways := opt.WaysList
	if len(ways) == 0 || ways[0] != 1 {
		ways = append([]int{1}, ways...)
	}
	type cfg struct {
		pattern hic.Pattern
		ways    int
		ctrl    ssd.ControllerKind
	}
	var cfgs []cfg
	for _, pattern := range []hic.Pattern{hic.Sequential, hic.Random} {
		for _, w := range ways {
			for _, kind := range []ssd.ControllerKind{ssd.CtrlHW, ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro} {
				cfgs = append(cfgs, cfg{pattern, w, kind})
			}
		}
	}
	params := shrink(nand.Hynix(), opt.Blocks)
	out := make([]Fig12Point, len(cfgs))
	err := sweep(opt, len(cfgs), func(i int, tracer obs.Tracer) error {
		c := cfgs[i]
		mbps, err := readThroughput(opt, ssd.BuildConfig{
			Params: params, Ways: c.ways, RateMT: 200,
			Controller: c.ctrl, CPUMHz: 1000,
		}, tracer, c.pattern, 4*c.ways)
		if err != nil {
			return fmt.Errorf("fig12 %v %v %dway: %w", c.pattern, c.ctrl, c.ways, err)
		}
		out[i] = Fig12Point{Pattern: c.pattern, Controller: c.ctrl, Ways: c.ways, MBps: mbps}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
// hardware baseline (the paper's headline metric).
func RenderFig12(points []Fig12Point) string {
	type key struct {
		pattern hic.Pattern
		ways    int
	}
	byKey := map[key]map[ssd.ControllerKind]float64{}
	waysSeen := map[hic.Pattern][]int{}
	for _, p := range points {
		k := key{p.Pattern, p.Ways}
		if byKey[k] == nil {
			byKey[k] = map[ssd.ControllerKind]float64{}
			waysSeen[p.Pattern] = append(waysSeen[p.Pattern], p.Ways)
		}
		byKey[k][p.Controller] = p.MBps
	}
	out := ""
	for _, pattern := range []hic.Pattern{hic.Sequential, hic.Random} {
		header := fmt.Sprintf("%-5s %10s %10s %8s %10s %8s", "ways", "HW", "RTOS", "ΔRTOS", "Coro", "ΔCoro")
		var rows []string
		for _, w := range waysSeen[pattern] {
			v := byKey[key{pattern, w}]
			hw, rtos, coro := v[ssd.CtrlHW], v[ssd.CtrlBabolRTOS], v[ssd.CtrlBabolCoro]
			rows = append(rows, fmt.Sprintf("%-5d %10.1f %10.1f %8s %10.1f %8s",
				w, hw, rtos, pct(rtos, hw), coro, pct(coro, hw)))
		}
		out += table(fmt.Sprintf("Fig 12: end-to-end %s READ bandwidth (MB/s), Hynix @ 200 MT/s, 1 GHz\n%s",
			pattern, header), rows)
		out += "\n"
	}
	return out
}
