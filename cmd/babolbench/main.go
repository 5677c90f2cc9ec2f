// Command babolbench regenerates every table and figure of the paper's
// evaluation (Section VI):
//
//	babolbench table1   Flash memory parameters (Table I)
//	babolbench table2   Lines of code per operation (Table II)
//	babolbench table3   FPGA resources per controller (Table III)
//	babolbench fig9     Algorithm-2 READ waveform (Figure 9)
//	babolbench fig10    Read throughput sweep (Figure 10)
//	babolbench fig11    Polling cadence analysis (Figure 11)
//	babolbench fig12    End-to-end SSD bandwidth (Figure 12)
//	babolbench split    software/hardware time split from the event stream
//	babolbench all      everything above, in paper order
//
// beyond the paper, a robustness soak:
//
//	babolbench chaos
//
// which drives mixed read/write workloads with GC pressure through the
// full SSD while a seeded fault plan injects stuck-busy LUNs, program/
// erase fail storms, uncorrectable-ECC bursts, and erratic tR at the
// NAND boundary, then verifies the drive drained without livelock or
// data loss on unfaulted chips. -seeds picks the number of runs; each
// run's plan derives from its seed alone, so any result reproduces
// exactly (chaos is excluded from `all` so the paper outputs stay
// fault-free).
//
// and a map-cache ablation:
//
//	babolbench mapcache
//
// which sweeps the FTL's translation-DRAM budget over random reads on a
// shrunk-geometry rig, reporting bandwidth and hit/miss/eviction
// counters per budget — the cost curve of demand-paged translations
// (also excluded from `all`). The -mapcache flag instead applies one
// budget to every figure rig, shifting the paper figures by the
// modeled map-read traffic.
//
// and a many-tenant QoS experiment over the multi-queue host frontend:
//
//	babolbench workload
//
// which runs a fixed cast of tenants — a sequential streamer, a zipfian
// hot-set reader, a bursty writer, and a mixed read/write/trim tenant —
// through NVMe-style submission queues sharing one drive, each tenant
// solo and then all contended, and reports per-tenant latency, slowdown,
// and Jain's fairness (also excluded from `all`). -queues sets the
// submission-queue count, -arb picks rr or wrr arbitration, -record
// captures the contended run's host command stream as a hic JSONL trace,
// and -replay plays such a trace back open loop on a fresh rig,
// reproducing the recorded command stream exactly (-replay with -record
// re-records it; the two files compare equal).
//
// plus the software logic analyzer over recorded traces:
//
//	babolbench analyze trace.jsonl
//
// which reconstructs per-op spans (latency breakdown percentiles),
// per-channel Gantt timelines with occupancy statistics, and a protocol
// violation report from a -trace JSONL file; -csv switches the report
// to machine-readable CSV.
//
// Flags scale the runs; the defaults reproduce the full sweeps. The
// sweeps fan independent rigs out across the CPUs (-parallel bounds the
// worker count; -parallel 1 pins the serial order for debugging) and
// reassemble results in configuration order, so output is byte-identical
// at any parallelism. With -trace, every rig's controller event stream
// is appended to one JSONL file (one JSON object per line; see
// internal/obs) for offline analysis or replay through obs.ReadJSONL +
// obs.Metrics; traces are buffered per rig and merged in configuration
// order, so they too are stable under parallelism.
//
// With -http ADDR, babolbench serves live introspection while the
// experiments run: /metrics is a JSON snapshot of the aggregated event
// stream (updated concurrently as rigs execute, safely — the endpoint
// aggregates through a mutex-guarded registry that does not perturb the
// deterministic trace path), /ftl is the FTL map-cache view (translation
// hit/miss/eviction/flush totals and hit rate — populated when
// -mapcache enables the cache), and the Go pprof handlers are mounted under
// /debug/pprof/ for profiling the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/internal/analyze"
	"repro/internal/exp"
	"repro/internal/hic"
	"repro/internal/obs"
)

// arbitration resolves the -arb flag.
func arbitration(name string) (hic.Arbitration, error) {
	switch name {
	case "rr", "":
		return hic.RoundRobin, nil
	case "wrr":
		return hic.WeightedRoundRobin, nil
	}
	return 0, fmt.Errorf("-arb %q: want rr or wrr", name)
}

// runWorkload is the `babolbench workload` subcommand: with -replay,
// play a recorded hic trace back on a fresh rig; otherwise run the
// many-tenant solo-versus-contended sweep. Either way -record captures
// the host command stream the (contended) run enqueued, so a replay can
// be re-recorded and compared with its input.
func runWorkload(c *cli, opt exp.Options, out io.Writer) error {
	arb, err := arbitration(c.arb)
	if err != nil {
		return err
	}
	cfg := exp.WorkloadConfig{Queues: c.queues, Arbitration: arb}
	if c.record != "" {
		cfg.Recorder = &hic.Recorder{}
	}
	if c.replay != "" {
		f, err := os.Open(c.replay)
		if err != nil {
			return err
		}
		entries, err := hic.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", c.replay, err)
		}
		res, err := exp.ReplayWorkload(opt, cfg, entries)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "replayed %d host commands (%d failed) over %s: mean %s, p99 %s, %.0f IOPS\n",
			res.Done(), res.Failed, res.Elapsed(), res.MeanLatency(),
			res.LatencyPercentile(99), res.IOPS())
	} else {
		r, err := exp.Workloads(opt, cfg)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.WorkloadCSV(r))
		} else {
			fmt.Fprintln(out, exp.RenderWorkload(r, arb))
		}
	}
	if c.record == "" {
		return nil
	}
	f, err := os.Create(c.record)
	if err != nil {
		return err
	}
	if err := cfg.Recorder.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "babolbench: recorded %d host commands to %s\n",
		cfg.Recorder.Len(), c.record)
	return nil
}

// analyzeTrace is the `babolbench analyze` subcommand: decode a JSONL
// trace and run the software logic analyzer over it.
func analyzeTrace(path string, csv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		// A trace truncated to nothing fails as loudly as a corrupted one.
		return fmt.Errorf("%s: no events", path)
	}
	res := analyze.Analyze(events)
	if csv {
		fmt.Print(res.CSV())
	} else {
		fmt.Print(res.Render())
	}
	return nil
}

// serveIntrospection mounts /metrics and /debug/pprof/ on addr and
// returns the live tracer the experiments should feed. The server stays
// up for the process lifetime; errors binding the socket are fatal
// (asking for introspection and silently not getting it is worse than
// failing).
func serveIntrospection(addr string) (obs.Tracer, error) {
	live := obs.NewSyncMetrics()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(live.Snapshot))
	mux.Handle("/ftl", obs.FTLHandler(live.Snapshot))
	mux.Handle("/tenants", obs.TenantsHandler(live.Snapshot))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-http %s: %w", addr, err)
	}
	fmt.Fprintf(os.Stderr, "babolbench: live introspection on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "babolbench: introspection server:", err)
		}
	}()
	return live, nil
}

// cli holds babolbench's parsed flags. The flag set is built on an
// injectable FlagSet so the parsing and resolution rules are testable.
type cli struct {
	fs       *flag.FlagSet
	csv      bool
	ops      int
	blocks   int
	trace    string
	parallel int
	seeds    int
	httpAddr string
	mapCache int64
	queues   int
	arb      string
	record   string
	replay   string
}

func newCLI(errOut io.Writer) *cli {
	c := &cli{fs: flag.NewFlagSet("babolbench", flag.ContinueOnError)}
	c.fs.SetOutput(errOut)
	c.fs.BoolVar(&c.csv, "csv", false, "emit fig10/fig12/split as CSV instead of tables")
	c.fs.IntVar(&c.ops, "ops", 240, "host operations per measured configuration")
	c.fs.IntVar(&c.blocks, "blocks", 64, "blocks per LUN (throughput runs do not need full arrays)")
	c.fs.StringVar(&c.trace, "trace", "", "append controller events to this JSONL file")
	c.fs.IntVar(&c.parallel, "parallel", 0, "rigs simulated concurrently (0 = one per CPU, 1 = serial; results are identical at any setting)")
	c.fs.IntVar(&c.seeds, "seeds", 8, "number of seeded fault plans for the chaos soak")
	c.fs.StringVar(&c.httpAddr, "http", "", "serve live metrics (/metrics) and pprof (/debug/pprof/) on this address during the run, e.g. :6060")
	c.fs.Int64Var(&c.mapCache, "mapcache", 0, "FTL translation-map DRAM budget in bytes (map pages demand-paged, misses charged as NAND reads; 0 = whole map resident)")
	c.fs.IntVar(&c.queues, "queues", 0, "workload: frontend submission-queue count (0 = one per tenant; tenants share queues when fewer)")
	c.fs.StringVar(&c.arb, "arb", "rr", "workload: submission-queue arbitration, rr or wrr (wrr gives queue 0 a 4-command burst)")
	c.fs.StringVar(&c.record, "record", "", "workload: write the contended run's (or the -replay's) host command stream to this hic JSONL trace")
	c.fs.StringVar(&c.replay, "replay", "", "workload: replay this hic JSONL trace on a fresh rig instead of the synthetic tenants")
	c.fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: babolbench [-ops N] [-blocks N] [-parallel N] [-mapcache BYTES] [-trace out.jsonl] [-http :PORT] table1|table2|table3|fig9|fig10|fig11|fig12|split|all\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-parallel N] [-trace out.jsonl] mapcache\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-seeds N] [-parallel N] [-mapcache BYTES] [-trace out.jsonl] chaos\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-queues N] [-arb rr|wrr] [-parallel N] [-record cmds.jsonl] [-replay cmds.jsonl] [-trace out.jsonl] workload\n")
		fmt.Fprintf(errOut, "       babolbench [-csv] analyze trace.jsonl\n")
		c.fs.PrintDefaults()
	}
	return c
}

// options resolves the parsed flags into experiment options. -parallel
// 0 passes through: the exp runner resolves it to the CPU count
// (Options.workers).
func (c *cli) options() exp.Options {
	return exp.Options{
		Ops: c.ops, Blocks: c.blocks, WaysList: []int{2, 4, 8},
		Parallel: c.parallel, MapCacheBytes: c.mapCache,
	}
}

// validate rejects flag values no experiment can run with.
func (c *cli) validate() error {
	if c.seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least 1", c.seeds)
	}
	return nil
}

func main() {
	c := newCLI(os.Stderr)
	if err := c.fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	csv, trace, seeds, httpAddr := &c.csv, &c.trace, &c.seeds, &c.httpAddr
	if c.fs.Arg(0) == "analyze" {
		if c.fs.NArg() != 2 {
			c.fs.Usage()
			os.Exit(2)
		}
		if err := analyzeTrace(c.fs.Arg(1), *csv); err != nil {
			fmt.Fprintln(os.Stderr, "babolbench:", err)
			os.Exit(1)
		}
		return
	}
	if c.fs.NArg() != 1 {
		c.fs.Usage()
		os.Exit(2)
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "babolbench:", err)
		c.fs.Usage()
		os.Exit(2)
	}
	opt := c.options()
	if *httpAddr != "" {
		live, err := serveIntrospection(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "babolbench:", err)
			os.Exit(1)
		}
		opt.Live = live
	}

	var sink *obs.JSONLWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "babolbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = obs.NewJSONLWriter(f)
		opt.Tracer = sink
	}

	var run func(name string) error
	run = func(name string) error {
		switch name {
		case "table1":
			fmt.Println(exp.RenderTable1())
		case "table2":
			out, err := exp.RenderTable2()
			if err != nil {
				return err
			}
			fmt.Println(out)
		case "table3":
			fmt.Println(exp.RenderTable3())
		case "fig9":
			out, err := exp.Fig9()
			if err != nil {
				return err
			}
			fmt.Println(out)
		case "fig10":
			pts, err := exp.Fig10(opt)
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(exp.Fig10CSV(pts))
			} else {
				fmt.Println(exp.RenderFig10(pts))
			}
		case "fig11":
			res, err := exp.Fig11(opt)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderFig11(res))
		case "fig12":
			f12 := opt
			f12.WaysList = []int{1, 2, 4, 8}
			pts, err := exp.Fig12(f12)
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(exp.Fig12CSV(pts))
			} else {
				fmt.Println(exp.RenderFig12(pts))
			}
		case "chaos":
			list := make([]int64, *seeds)
			for i := range list {
				list[i] = int64(i + 1)
			}
			pts, err := exp.Chaos(opt, list)
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(exp.ChaosCSV(pts))
			} else {
				fmt.Println(exp.RenderChaos(pts))
			}
		case "mapcache":
			pts, err := exp.MapCache(opt, nil)
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(exp.MapCacheCSV(pts))
			} else {
				fmt.Println(exp.RenderMapCache(pts))
			}
		case "workload":
			return runWorkload(c, opt, os.Stdout)
		case "split":
			rows, err := exp.TimeSplit(opt)
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(exp.TimeSplitCSV(rows))
			} else {
				fmt.Println(exp.RenderTimeSplit(rows))
			}
		case "all":
			for _, n := range []string{"table1", "table2", "table3", "fig9", "fig10", "fig11", "fig12", "split"} {
				if err := run(n); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	err := run(c.fs.Arg(0))
	if sink != nil {
		if ferr := sink.Flush(); err == nil && ferr != nil {
			err = fmt.Errorf("writing trace: %w", ferr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "babolbench:", err)
		os.Exit(1)
	}
}
