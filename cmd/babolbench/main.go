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
// and one whole-drive run, the fio stand-in of the paper's Figure 12
// setup:
//
//	babolbench -ctrl rtos -ways 8 -pattern random -kind read -ops 2000 drive
//	babolbench -ctrl hw -pattern random -kind write -ops 5000 -blocks 4 drive   # exercises GC
//	babolbench -replay cmds.jsonl drive   # replays a -record trace
//
// which builds one SSD (host interface → FTL → channel controllers →
// NAND) from the drive flags — -ctrl hw|rtos|coro, -channels, -ways,
// -package, -mt, -mhz, -ecc, -copyback, -suspend-reads — runs -ops
// commands of -pattern and -kind at queue depth -qd against it, and
// reports bandwidth, IOPS, latency percentiles, and GC/ECC counters.
// -replay plays a recorded hic trace back on that rig instead (one
// submission queue per recorded queue, -qd each), preloaded over the
// pages it touches. Like every rig, it takes -trace, -http and -mapcache
// (not part of `all`).
//
// and one flash operation's channel waveform, the logic-analyzer view of
// the paper's Figures 9 and 11:
//
//	babolbench wave read                # READ with column change (Algorithm 2)
//	babolbench wave read-slc            # pseudo-SLC READ (Algorithm 3)
//	babolbench -ctrl coro wave cache-read
//
// which runs the op on a two-LUN BABOL channel under -ctrl rtos or coro
// (-mhz, -mt), prints the captured waveform followed by the ONFI
// timing-rule verdict (exit 1 on a violation), and with -vcd also writes
// it as a GTKWave-viewable VCD file (not part of `all`).
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
// order, so they too are stable under parallelism. A flag the
// subcommand never reads is refused (exit 2) rather than ignored, and so
// is an unknown enumerated value (-ctrl, -pattern, -kind, -arb,
// -package).
//
// With -http ADDR, babolbench serves live introspection while the
// experiments run: /metrics is a JSON snapshot of the aggregated event
// stream (updated concurrently as rigs execute, safely — the endpoint
// aggregates through a mutex-guarded registry that does not perturb the
// deterministic trace path), /ftl is the FTL map-cache view (translation
// hit/miss/eviction/flush totals and hit rate — populated when
// -mapcache enables the cache), /tenants is the per-tenant host-command
// view (counts, command mix and latency histogram per tenant — populated
// by workload and replay runs), and the Go pprof handlers are mounted
// under /debug/pprof/ for profiling the simulator itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strings"

	"repro/internal/analyze"
	"repro/internal/exp"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// readRecording decodes the hic JSONL trace at path (what -record
// writes) for a replay.
func readRecording(path string) ([]hic.RecordEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := hic.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// runWorkload is the `babolbench workload` subcommand: with -replay,
// play a recorded hic trace back on a fresh rig; otherwise run the
// many-tenant solo-versus-contended sweep. Either way -record captures
// the host command stream the (contended) run enqueued, so a replay can
// be re-recorded and compared with its input.
func runWorkload(c *cli, opt exp.Options, out io.Writer) error {
	cfg := exp.WorkloadConfig{Queues: c.queues, Arbitration: c.arb}
	if c.record != "" {
		cfg.Recorder = &hic.Recorder{}
	}
	if c.replay != "" {
		entries, err := readRecording(c.replay)
		if err != nil {
			return err
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
			fmt.Fprintln(out, exp.RenderWorkload(r, c.arb))
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

// runDrive is the `babolbench drive` subcommand: the rig the drive flags
// describe runs their synthetic stream or, with -replay, a recorded one.
func runDrive(c *cli, opt exp.Options, out io.Writer) error {
	var entries []hic.RecordEntry
	title := c.load.Pattern.String() + " " + c.load.Kind.String()
	if c.replay != "" {
		var err error
		if entries, err = readRecording(c.replay); err != nil {
			return err
		}
		title = "replay of " + c.replay
	}
	report, err := exp.Drive(opt, c.rig, c.load, entries, title)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, report)
	return err
}

// analyzeTrace is the `babolbench analyze` subcommand: decode a JSONL
// trace and run the software logic analyzer over it.
func analyzeTrace(path string, csv bool, out io.Writer) error {
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
		fmt.Fprint(out, res.CSV())
	} else {
		fmt.Fprint(out, res.Render())
	}
	return nil
}

// serveIntrospection mounts /metrics, /ftl, /tenants and /debug/pprof/
// on addr and returns the live tracer the experiments should feed. The
// server stays up for the process lifetime; errors binding the socket
// are fatal (asking for introspection and silently not getting it is
// worse than failing).
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

// allMembers are the subcommands `all` runs, in paper order.
var allMembers = []string{"table1", "table2", "table3", "fig9", "fig10", "fig11", "fig12", "split"}

// operands is each subcommand's positional operand count; a name missing
// here is not a subcommand.
var operands = map[string]int{
	"table1": 0, "table2": 0, "table3": 0, "fig9": 0, "fig10": 0, "fig11": 0,
	"fig12": 0, "split": 0, "all": 0, "chaos": 0, "mapcache": 0,
	"workload": 0, "drive": 0, "analyze": 1, "wave": 1,
}

// flagUse lists the subcommands that read each flag. validate refuses a
// flag set for any other subcommand; `all` reads what its members read.
var flagUse = map[string]string{
	"csv":           "fig10 fig12 split chaos mapcache workload analyze",
	"ops":           "fig10 fig11 fig12 split chaos mapcache workload drive",
	"blocks":        "fig10 fig11 fig12 split drive",
	"trace":         "fig10 fig11 fig12 split chaos mapcache workload drive",
	"http":          "fig10 fig11 fig12 split chaos mapcache workload drive",
	"parallel":      "fig10 fig11 fig12 split chaos mapcache workload",
	"mapcache":      "fig10 fig11 fig12 split chaos workload drive",
	"seeds":         "chaos",
	"queues":        "workload",
	"arb":           "workload",
	"record":        "workload",
	"replay":        "workload drive",
	"ctrl":          "drive wave",
	"mhz":           "drive wave",
	"mt":            "drive wave",
	"channels":      "drive",
	"ways":          "drive",
	"package":       "drive",
	"ecc":           "drive",
	"copyback":      "drive",
	"suspend-reads": "drive",
	"pattern":       "drive",
	"kind":          "drive",
	"qd":            "drive",
	"vcd":           "wave",
}

// reads reports whether subcommand sub reads flag name.
func reads(name, sub string) bool {
	if sub == "all" {
		return slices.ContainsFunc(allMembers, func(m string) bool { return reads(name, m) })
	}
	return slices.Contains(strings.Fields(flagUse[name]), sub)
}

// enumVar defines an enumerated flag whose value is the lower-cased
// String of one of vals; *p holds the default. Anything else is a parse
// error (exit 2), never a silent default.
func enumVar[T fmt.Stringer](fs *flag.FlagSet, p *T, name, usage string, vals ...T) {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = strings.ToLower(v.String())
	}
	usage = fmt.Sprintf("%s: %s (default %s)", usage, strings.Join(names, "|"), strings.ToLower((*p).String()))
	fs.Func(name, usage, func(s string) error {
		if i := slices.Index(names, s); i >= 0 {
			*p = vals[i]
			return nil
		}
		return fmt.Errorf("want %s", strings.Join(names, "|"))
	})
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
	arb      hic.Arbitration
	record   string
	replay   string
	// rig is the drive flags' SSD (-ctrl, -mhz and -mt also shape wave's
	// channel) and load their synthetic host stream.
	rig  ssd.BuildConfig
	load hic.Workload
	vcd  string
}

func newCLI(errOut io.Writer) *cli {
	c := &cli{
		fs:   flag.NewFlagSet("babolbench", flag.ContinueOnError),
		arb:  hic.RoundRobin,
		rig:  ssd.BuildConfig{Params: nand.Hynix(), Controller: ssd.CtrlBabolRTOS},
		load: hic.Workload{Pattern: hic.Sequential, Kind: hic.KindRead},
	}
	c.fs.SetOutput(errOut)
	c.fs.BoolVar(&c.csv, "csv", false, "emit fig10/fig12/split/chaos/mapcache/workload/analyze as CSV instead of tables")
	c.fs.IntVar(&c.ops, "ops", 240, "host operations per measured configuration")
	c.fs.IntVar(&c.blocks, "blocks", 64, "blocks per LUN (throughput runs do not need full arrays)")
	c.fs.StringVar(&c.trace, "trace", "", "append controller events to this JSONL file")
	c.fs.IntVar(&c.parallel, "parallel", 0, "rigs simulated concurrently (0 = one per CPU, 1 = serial; results are identical at any setting)")
	c.fs.IntVar(&c.seeds, "seeds", 8, "number of seeded fault plans for the chaos soak")
	c.fs.StringVar(&c.httpAddr, "http", "", "serve live metrics (/metrics, /ftl, /tenants) and pprof (/debug/pprof/) on this address during the run, e.g. :6060")
	c.fs.Int64Var(&c.mapCache, "mapcache", 0, "FTL translation-map DRAM budget in bytes (map pages demand-paged, misses charged as NAND reads; 0 = whole map resident)")
	c.fs.IntVar(&c.queues, "queues", 0, "workload: frontend submission-queue count (0 = one per tenant; tenants share queues when fewer)")
	enumVar(c.fs, &c.arb, "arb", "workload: submission-queue arbitration (wrr gives queue 0 a 4-command burst)",
		hic.RoundRobin, hic.WeightedRoundRobin)
	c.fs.StringVar(&c.record, "record", "", "workload: write the contended run's (or the -replay's) host command stream to this hic JSONL trace")
	c.fs.StringVar(&c.replay, "replay", "", "workload, drive: replay this hic JSONL trace on a fresh rig instead of the synthetic stream")
	enumVar(c.fs, &c.rig.Controller, "ctrl", "drive, wave: channel controller (wave runs rtos or coro)",
		ssd.CtrlHW, ssd.CtrlBabolRTOS, ssd.CtrlBabolCoro)
	c.fs.IntVar(&c.rig.Channels, "channels", 1, "drive: independent flash channels")
	c.fs.IntVar(&c.rig.Ways, "ways", 8, "drive: LUNs per channel")
	c.fs.Func("package", "drive: NAND preset: Hynix|Toshiba|Micron (default Hynix)", func(s string) (err error) {
		c.rig.Params, err = nand.PresetByName(s)
		return err
	})
	c.fs.IntVar(&c.rig.RateMT, "mt", 200, "drive, wave: channel rate in MT/s")
	c.fs.IntVar(&c.rig.CPUMHz, "mhz", 1000, "drive, wave: firmware CPU clock in MHz")
	c.fs.BoolVar(&c.rig.WithECC, "ecc", false, "drive: protect pages with SEC-DED ECC")
	c.fs.BoolVar(&c.rig.UseCopyback, "copyback", false, "drive: GC relocations use NAND copyback (BABOL only)")
	c.fs.BoolVar(&c.rig.SuspendReads, "suspend-reads", false, "drive: reads preempt GC erases (BABOL only)")
	enumVar(c.fs, &c.load.Pattern, "pattern", "drive: host address pattern", hic.Sequential, hic.Random)
	enumVar(c.fs, &c.load.Kind, "kind", "drive: host command kind", hic.KindRead, hic.KindWrite)
	c.fs.IntVar(&c.load.QueueDepth, "qd", 32, "drive: queue depth (with -replay, each recorded queue's window)")
	c.fs.StringVar(&c.vcd, "vcd", "", "wave: also write the waveform as a VCD file (view in GTKWave)")
	c.fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: babolbench [-ops N] [-blocks N] [-parallel N] [-mapcache BYTES] [-trace out.jsonl] [-http :PORT] [-csv] table1|table2|table3|fig9|fig10|fig11|fig12|split|all\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-parallel N] [-trace out.jsonl] [-http :PORT] [-csv] mapcache\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-seeds N] [-parallel N] [-mapcache BYTES] [-trace out.jsonl] [-csv] chaos\n")
		fmt.Fprintf(errOut, "       babolbench [-ops N] [-queues N] [-arb rr|wrr] [-parallel N] [-record cmds.jsonl] [-replay cmds.jsonl] [-trace out.jsonl] [-csv] workload\n")
		fmt.Fprintf(errOut, "       babolbench [-ctrl hw|rtos|coro] [-channels N] [-ways N] [-package P] [-mt N] [-mhz N] [-ecc] [-copyback] [-suspend-reads]\n")
		fmt.Fprintf(errOut, "                  [-pattern sequential|random] [-kind read|write] [-qd N] [-ops N] [-blocks N] [-mapcache BYTES] [-replay cmds.jsonl] [-trace out.jsonl] [-http :PORT] drive\n")
		fmt.Fprintf(errOut, "       babolbench [-ctrl rtos|coro] [-mhz N] [-mt N] [-vcd out.vcd] wave %s\n", waveOpNames())
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

// validate rejects a command line before anything runs: an unknown
// subcommand or operand count, a flag the subcommand never reads, and
// values no run can use.
func (c *cli) validate() error {
	sub := c.fs.Arg(0)
	n, ok := operands[sub]
	switch {
	case c.fs.NArg() == 0:
		return errors.New("no subcommand")
	case !ok:
		return fmt.Errorf("unknown experiment %q", sub)
	case c.fs.NArg() != 1+n:
		return fmt.Errorf("%s takes %d operand(s), got %d", sub, n, c.fs.NArg()-1)
	}
	var err error
	c.fs.Visit(func(f *flag.Flag) {
		if err == nil && !reads(f.Name, sub) {
			err = fmt.Errorf("%s does not read -%s", sub, f.Name)
		}
	})
	if err != nil {
		return err
	}
	if c.seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least 1", c.seeds)
	}
	if sub == "wave" {
		if c.rig.Controller == ssd.CtrlHW {
			return errors.New("wave: -ctrl hw runs no firmware; want rtos or coro")
		}
		if _, ok := waveOps[c.fs.Arg(1)]; !ok {
			return fmt.Errorf("wave: unknown op %q; want %s", c.fs.Arg(1), waveOpNames())
		}
	}
	return nil
}

// run executes subcommand name, writing its report to out.
func (c *cli) run(name string, opt exp.Options, out io.Writer) error {
	switch name {
	case "table1":
		fmt.Fprintln(out, exp.RenderTable1())
	case "table2":
		s, err := exp.RenderTable2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	case "table3":
		fmt.Fprintln(out, exp.RenderTable3())
	case "fig9":
		s, err := exp.Fig9()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	case "fig10":
		pts, err := exp.Fig10(opt)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.Fig10CSV(pts))
		} else {
			fmt.Fprintln(out, exp.RenderFig10(pts))
		}
	case "fig11":
		res, err := exp.Fig11(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, exp.RenderFig11(res))
	case "fig12":
		f12 := opt
		f12.WaysList = []int{1, 2, 4, 8}
		pts, err := exp.Fig12(f12)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.Fig12CSV(pts))
		} else {
			fmt.Fprintln(out, exp.RenderFig12(pts))
		}
	case "chaos":
		list := make([]int64, c.seeds)
		for i := range list {
			list[i] = int64(i + 1)
		}
		pts, err := exp.Chaos(opt, list)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.ChaosCSV(pts))
		} else {
			fmt.Fprintln(out, exp.RenderChaos(pts))
		}
	case "mapcache":
		pts, err := exp.MapCache(opt, nil)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.MapCacheCSV(pts))
		} else {
			fmt.Fprintln(out, exp.RenderMapCache(pts))
		}
	case "workload":
		return runWorkload(c, opt, out)
	case "drive":
		return runDrive(c, opt, out)
	case "wave":
		return runWave(c, out)
	case "analyze":
		return analyzeTrace(c.fs.Arg(1), c.csv, out)
	case "split":
		rows, err := exp.TimeSplit(opt)
		if err != nil {
			return err
		}
		if c.csv {
			fmt.Fprint(out, exp.TimeSplitCSV(rows))
		} else {
			fmt.Fprintln(out, exp.RenderTimeSplit(rows))
		}
	case "all":
		for _, n := range allMembers {
			if err := c.run(n, opt, out); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func main() {
	c := newCLI(os.Stderr)
	if err := c.fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "babolbench:", err)
		c.fs.Usage()
		os.Exit(2)
	}
	opt := c.options()
	if c.httpAddr != "" {
		live, err := serveIntrospection(c.httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "babolbench:", err)
			os.Exit(1)
		}
		opt.Live = live
	}

	var sink *obs.JSONLWriter
	if c.trace != "" {
		f, err := os.Create(c.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "babolbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = obs.NewJSONLWriter(f)
		opt.Tracer = sink
	}

	err := c.run(c.fs.Arg(0), opt, os.Stdout)
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
