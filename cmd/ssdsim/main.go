// Command ssdsim runs a fio-like workload against a complete simulated
// SSD (host interface → FTL → channel controller → NAND) and reports
// bandwidth, IOPS, latency percentiles, and controller statistics.
//
//	ssdsim -ctrl rtos -ways 8 -pattern random -kind read -ops 2000
//	ssdsim -ctrl hw -kind write -ops 5000     # exercises GC
//	ssdsim -trace cmds.jsonl                  # replays a babolbench -record trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/ssd"
)

// selectors resolves the three enumerated flags. An unknown value is
// an error for main to report with exit 2, never a silent default.
func selectors(ctrl, pattern, kind string) (c ssd.ControllerKind, p hic.Pattern, k hic.Kind, err error) {
	switch ctrl {
	case "hw":
		c = ssd.CtrlHW
	case "rtos":
		c = ssd.CtrlBabolRTOS
	case "coro":
		c = ssd.CtrlBabolCoro
	default:
		return c, p, k, fmt.Errorf("unknown controller %q: want hw, rtos or coro", ctrl)
	}
	switch pattern {
	case "sequential":
		p = hic.Sequential
	case "random":
		p = hic.Random
	default:
		return c, p, k, fmt.Errorf("unknown pattern %q: want sequential or random", pattern)
	}
	switch kind {
	case "read":
		k = hic.KindRead
	case "write":
		k = hic.KindWrite
	default:
		return c, p, k, fmt.Errorf("unknown kind %q: want read or write", kind)
	}
	return c, p, k, nil
}

// replay starts the recorded source on rig from the hic JSONL trace at
// path (what `babolbench -record` writes) and reports its command
// count. The frontend is sized from the trace — one submission queue
// per recorded queue index — with qd as each queue's window.
func replay(rig *ssd.Rig, path string, qd int) (*hic.Result, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	entries, err := hic.ReadJSONL(f)
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	queues := 0
	for _, e := range entries {
		queues = max(queues, e.Queue+1)
	}
	qcs := make([]hic.QueueConfig, queues)
	for i := range qcs {
		qcs[i].Depth = qd
	}
	front, err := hic.NewFrontend(rig.Kernel, rig.SSD, hic.FrontendConfig{Queues: qcs})
	if err != nil {
		return nil, 0, err
	}
	res, err := hic.Replay(rig.Kernel, front, entries, nil)
	return res, len(entries), err
}

func main() {
	ctrl := flag.String("ctrl", "rtos", "controller: hw|rtos|coro")
	channels := flag.Int("channels", 1, "independent flash channels")
	pkg := flag.String("package", "Hynix", "NAND preset: Hynix|Toshiba|Micron")
	ways := flag.Int("ways", 8, "LUNs on the channel")
	rate := flag.Int("mt", 200, "channel rate in MT/s")
	mhz := flag.Int("mhz", 1000, "firmware CPU clock in MHz")
	pattern := flag.String("pattern", "sequential", "sequential|random")
	kind := flag.String("kind", "read", "read|write")
	numOps := flag.Int("ops", 1000, "host commands to issue")
	qd := flag.Int("qd", 32, "queue depth")
	blocks := flag.Int("blocks", 64, "blocks per LUN")
	withECC := flag.Bool("ecc", false, "protect pages with SEC-DED ECC")
	copyback := flag.Bool("copyback", false, "GC relocations use NAND copyback (BABOL only)")
	suspend := flag.Bool("suspend-reads", false, "reads preempt GC erases (BABOL only)")
	traceFile := flag.String("trace", "", "replay a hic JSONL trace (babolbench -record) instead of a synthetic pattern; -qd is each queue's window")
	flag.Parse()

	params, err := nand.PresetByName(*pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(2)
	}
	params.Geometry.BlocksPerLUN = *blocks

	kindSel, pat, k, err := selectors(*ctrl, *pattern, *kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(2)
	}

	rig, err := ssd.Build(ssd.BuildConfig{
		Params: params, Channels: *channels, Ways: *ways, RateMT: *rate,
		Controller: kindSel, CPUMHz: *mhz, WithECC: *withECC,
		UseCopyback: *copyback, SuspendReads: *suspend,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(1)
	}
	defer rig.Close()

	working := 64 * *ways * *channels
	if working > rig.FTL.LogicalPages() {
		working = rig.FTL.LogicalPages()
	}
	if k == hic.KindRead {
		if err := rig.SSD.Preload(working); err != nil {
			fmt.Fprintln(os.Stderr, "ssdsim:", err)
			os.Exit(1)
		}
	}

	var res *hic.Result
	if *traceFile != "" {
		res, *numOps, err = replay(rig, *traceFile, *qd)
	} else {
		res, err = hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: pat, Kind: k,
			NumOps: *numOps, QueueDepth: *qd, LogicalPages: working, Seed: 1,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(1)
	}
	rig.Kernel.Run()

	pageBytes := params.Geometry.PageBytes
	fmt.Printf("ssdsim: %s %s on %s, %d ch × %d ways @ %d MT/s, %s controller",
		*pattern, *kind, params.Name, *channels, *ways, *rate, kindSel)
	if kindSel != ssd.CtrlHW {
		fmt.Printf(" (%d MHz)", *mhz)
	}
	fmt.Println()
	fmt.Printf("  completed: %d/%d (%d failed)\n", res.Completed, *numOps, res.Failed)
	fmt.Printf("  elapsed:   %v (virtual)\n", res.Elapsed())
	fmt.Printf("  bandwidth: %.1f MB/s   IOPS: %.0f\n", res.BandwidthMBps(pageBytes), res.IOPS())
	fmt.Printf("  latency:   mean %v, p50 %v, p99 %v\n",
		res.MeanLatency(), res.LatencyPercentile(50), res.LatencyPercentile(99))
	st := rig.SSD.Stats()
	fst := rig.FTL.Stats()
	fmt.Printf("  ssd:       GC cycles %d, ECC corrections %d/%d failures\n",
		st.GCCycles, st.ECCCorrections, st.ECCFailures)
	if k == hic.KindWrite {
		fmt.Printf("  ftl:       write amplification %.2f\n", fst.WriteAmplification())
	}
	_ = fst
}
