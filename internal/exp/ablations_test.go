package exp

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// The design ablations of EXPERIMENTS.md's "Ablations" table: seven
// choices the paper makes in software (the transaction scheduler, polling,
// ECC, the firmware clock, copyback GC, erase suspend and multi-plane
// read), each measured at two to four settings. Every rig is built by
// driveRig and runs on the sweep runner; TestFigureGoldens holds the
// rows to testdata/ablations.csv.golden. Only tests reach them.

// ablation is one row of the table: a design choice at one setting, and
// the metric its rig measures.
type ablation struct {
	name, setting, metric, unit string
	run                         func(opt Options, tracer obs.Tracer) (float64, error)
}

// ablationRig is the rig every ablation varies one knob of: BABOL-RTOS
// at 1 GHz on a 200 MT/s channel of ways Hynix LUNs cut to 16 blocks.
func ablationRig(ways int) ssd.BuildConfig {
	return ssd.BuildConfig{Params: shrink(nand.Hynix(), 16), Ways: ways, RateMT: 200, Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000}
}

// ablations is the table, in the order EXPERIMENTS.md lists it.
func ablations() []ablation {
	readBW := func(name, setting string, cfg ssd.BuildConfig) ablation {
		return ablation{name, setting, "read_bw", "MB/s", func(opt Options, tracer obs.Tracer) (float64, error) {
			return readThroughput(opt, cfg, tracer, hic.Sequential, 16)
		}}
	}
	var rows []ablation
	tm, bus := onfi.DefaultTiming(), onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}
	for _, q := range []struct {
		setting string
		mk      func() sched.TxnQueue
	}{
		{"issue-first", sched.NewTxnIssueFirst},
		{"round-robin", sched.NewTxnRoundRobin},
		{"fifo", sched.NewTxnFIFO},
		{"shortest-first", func() sched.TxnQueue { return sched.NewTxnShortestFirst(tm, bus) }},
	} {
		cfg := ablationRig(4)
		cfg.TxnQueue = q.mk
		rows = append(rows, readBW("scheduler", q.setting, cfg))
	}
	// A safe fixed wait covers the worst-case tR: nominal plus the
	// jitter bound.
	p := ablationRig(1).Params
	page, first := p.Geometry.PageBytes, []onfi.RowAddr{{}}
	rows = append(rows,
		opRow("polling", "poll", "read_latency", first, ops.ReadPage(onfi.Addr{}, 0, page)),
		opRow("polling", "fixed-wait", "read_latency", first, ops.ReadPageFixedWait(onfi.Addr{}, 0, page, p.TR+p.TR/10)))
	for _, e := range []struct {
		setting string
		on      bool
	}{{"off", false}, {"on", true}} {
		cfg := ablationRig(4)
		cfg.WithECC = e.on
		rows = append(rows, readBW("ecc", e.setting, cfg))
	}
	for _, mhz := range []int{150, 400, 1000} {
		cfg := ablationRig(8)
		cfg.Controller, cfg.CPUMHz = ssd.CtrlBabolCoro, mhz
		rows = append(rows, readBW("cpu_frequency", fmt.Sprintf("coro-%dMHz", mhz), cfg))
	}
	rows = append(rows,
		ablation{"copyback_gc", "read-program", "write_bw", "MB/s", copybackGC(false)},
		ablation{"copyback_gc", "copyback", "write_bw", "MB/s", copybackGC(true)},
		ablation{"erase_suspend", "baseline", "read_p99", "us", eraseSuspend(false)},
		ablation{"erase_suspend", "suspend", "read_p99", "us", eraseSuspend(true)})
	// Blocks 0 and 1 sit on planes 0 and 1.
	planes := []onfi.RowAddr{{Block: 0}, {Block: 1}}
	return append(rows,
		opRow("multi_plane", "single-plane", "two_page_read", planes,
			ops.ReadPage(onfi.Addr{Row: planes[0]}, 0, page), ops.ReadPage(onfi.Addr{Row: planes[1]}, page, page)),
		opRow("multi_plane", "multi-plane", "two_page_read", planes, ops.MPReadPages(planes, 0, page)))
}

// opRow times steps run one after another on a one-LUN rig with rows
// seeded, from the start of the first to the end of the last, in
// microseconds.
func opRow(name, setting, metric string, rows []onfi.RowAddr, steps ...core.OpFunc) ablation {
	return ablation{name, setting, metric, "us", func(opt Options, tracer obs.Tracer) (float64, error) {
		var end sim.Time
		var opErr error
		_, err := driveRig(opt, ablationRig(1), 0, nil, tracer, func(r *ssd.Rig, _ *hic.Frontend) error {
			for _, row := range rows {
				if err := r.Channel.Chip(0).SeedPage(row, []byte{1}); err != nil {
					return err
				}
			}
			var next func(i int)
			next = func(i int) {
				r.Babol.Start(core.OpRequest{Func: steps[i], Chip: 0, Done: func(err error) {
					switch {
					case err != nil:
						opErr = err
					case i+1 < len(steps):
						next(i + 1)
					default:
						end = r.Kernel.Now()
					}
				}})
			}
			next(0)
			return nil
		})
		return sim.Duration(end).Micros(), errors.Join(err, opErr)
	}}
}

// copybackGC measures write bandwidth under a steady overwrite load on
// two ways of 12 blocks, GC relocating by NAND copyback (the page stays
// inside the LUN) or by read-out/write-in. Short array times keep the
// run quick; the ablation compares channel traffic, which they preserve.
func copybackGC(copyback bool) func(Options, obs.Tracer) (float64, error) {
	return func(opt Options, tracer obs.Tracer) (float64, error) {
		cfg := ablationRig(2)
		p := &cfg.Params
		p.Geometry.BlocksPerLUN = 12
		p.TR, p.TPROG, p.TBERS = 20*sim.Microsecond, 50*sim.Microsecond, 200*sim.Microsecond
		cfg.UseCopyback = copyback
		var res *hic.Result
		_, err := driveRig(opt, cfg, 0, nil, tracer, func(r *ssd.Rig, _ *hic.Frontend) (err error) {
			logical := r.FTL.LogicalPages()
			res, err = hic.Run(r.Kernel, r.SSD, hic.Workload{
				Pattern: hic.Sequential, Kind: hic.KindWrite,
				NumOps: 3 * logical, QueueDepth: 4, LogicalPages: logical,
			})
			return err
		})
		if err == nil && res.Failed != 0 {
			err = fmt.Errorf("%d writes failed", res.Failed)
		}
		if err != nil {
			return 0, err
		}
		return res.BandwidthMBps(cfg.Params.Geometry.PageBytes), nil
	}
}

// eraseSuspend measures the p99 of 80 random reads, one at a time, while
// a writer chain overwrites a one-LUN drive three times over, with or
// without read-priority erase suspension. shrunkHynix's small geometry
// and a 3 ms tBERS make GC erases frequent and long enough that the
// reads collide with them.
func eraseSuspend(suspend bool) func(Options, obs.Tracer) (float64, error) {
	return func(opt Options, tracer obs.Tracer) (float64, error) {
		cfg := ablationRig(1)
		cfg.Params = shrunkHynix(16, 4)
		cfg.Params.TBERS = 3 * sim.Millisecond
		cfg.SuspendReads = suspend
		var res *hic.Result
		var writeErr error
		_, err := driveRig(opt, cfg, 0, nil, tracer, func(r *ssd.Rig, _ *hic.Frontend) (err error) {
			logical := r.FTL.LogicalPages()
			if err := r.SSD.Preload(logical); err != nil {
				return err
			}
			writes := 0
			var writeNext func()
			writeNext = func() {
				if writes >= 3*logical {
					return
				}
				writes++
				r.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: writes % logical, Done: func(err error) {
					if err != nil {
						writeErr = err
						return
					}
					writeNext()
				}})
			}
			writeNext()
			res, err = hic.Run(r.Kernel, r.SSD, hic.Workload{
				Pattern: hic.Random, Kind: hic.KindRead,
				NumOps: 80, QueueDepth: 1, LogicalPages: logical, Seed: 11,
			})
			return err
		})
		if err = errors.Join(err, writeErr); err != nil {
			return 0, err
		}
		return res.LatencyPercentile(99).Micros(), nil
	}
}

// runAblations runs every row at the scale the table reports (80
// commands per read-bandwidth rig, whatever opt.Ops says) and renders
// the CSV: MB/s to two decimals, microseconds to four significant
// digits.
func runAblations(opt Options) (string, error) {
	opt.Ops = 80
	rows := ablations()
	vals, err := sweep(opt, rows, func(a ablation, tracer obs.Tracer) (float64, error) {
		v, err := a.run(opt, tracer)
		if err != nil {
			err = fmt.Errorf("ablation %s %s: %w", a.name, a.setting, err)
		}
		return v, err
	})
	if err != nil {
		return "", err
	}
	out := "ablation,setting,metric,unit,value\n"
	for i, a := range rows {
		format := "%.2f"
		if a.unit == "us" {
			format = "%.4g"
		}
		out += fmt.Sprintf("%s,%s,%s,%s,"+format+"\n", a.name, a.setting, a.metric, a.unit, vals[i])
	}
	return out, nil
}
