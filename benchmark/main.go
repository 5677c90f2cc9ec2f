// Command benchmark is the repo's measured ledger: five named workloads
// through the whole stack, each reporting the modeled drive in virtual
// time and the simulator in host time, never mixed in one number.
//
//	go run ./benchmark -seed 1                 every workload, end to end and per layer
//	go run ./benchmark -selfcheck              two end-to-end sets, compared against the bounds
//	go run ./benchmark -workload W -seconds S -trace 0|1
//	                                           one workload, the form BENCHMARK.json's command takes
//
// Every repetition runs in a fresh child process of this one command
// (clean heap, its own VmHWM, GOMAXPROCS=1).
// See README.md for the metrics, the workloads and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all five, as a table)")
		seed         = flag.Int64("seed", 1, "seed of the random and zipfian command streams")
		seconds      = flag.Int("seconds", runSeconds, "with -workload: host seconds of end-to-end repetitions to measure")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the layer pass and reports the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run two end-to-end sets back to back and fail if their medians differ by more than a bound")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json as this program declares it and exit")
		child        = flag.String("child", "", "internal: run one job (run or ladder) in this process and print its JSON")
		spec         runSpec
	)
	flag.BoolVar(&spec.HW, "hw", false, "internal (-child)")
	flag.BoolVar(&spec.Buffer, "buffer", false, "internal (-child)")
	flag.BoolVar(&spec.Timed, "timed", false, "internal (-child)")
	flag.IntVar(&spec.Ops, "ops", 0, "internal (-child)")
	flag.IntVar(&spec.Setups, "setups", 1, "internal (-child)")
	flag.IntVar(&spec.Procs, "procs", 1, "internal (-child)")
	flag.Parse()
	spec.Workload, spec.Seed = *workloadName, *seed

	err := func() error {
		switch {
		case *describe:
			raw, err := benchmarkJSON()
			os.Stdout.Write(raw)
			return err
		case *child != "":
			return runChild(*child, spec)
		}
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		h := &harness{seed: *seed, scale: 1, out: os.Stdout, run: childRunner(exe), ladder: childLadder(exe)}
		switch {
		case *selfcheck:
			return h.selfcheck()
		case *workloadName == "":
			return h.ledgerAll(ledgerReps)
		}
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		return h.contractRun(w, time.Duration(*seconds)*time.Second, *trace == 1)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild executes one job in this process and prints its result.
func runChild(kind string, spec runSpec) error {
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(spec.Procs)
	var out any
	switch kind {
	case "run":
		out, err = w.run(spec)
	case "ladder":
		out, err = w.ladder()
	default:
		err = fmt.Errorf("unknown child job %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn runs one child job to completion and decodes its result.
func spawn(exe string, into any, args ...string) error {
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return json.Unmarshal(stdout.Bytes(), into)
}

func childRunner(exe string) func(runSpec) (*runOut, error) {
	return func(s runSpec) (*runOut, error) {
		out := &runOut{}
		err := spawn(exe, out, "-child", "run", "-workload", s.Workload, "-seed", strconv.FormatInt(s.Seed, 10),
			"-hw="+strconv.FormatBool(s.HW), "-buffer="+strconv.FormatBool(s.Buffer), "-timed="+strconv.FormatBool(s.Timed),
			"-ops", strconv.Itoa(s.Ops), "-setups", strconv.Itoa(s.Setups), "-procs", strconv.Itoa(s.Procs))
		return out, err
	}
}

func childLadder(exe string) func(*workload) (*ladderOut, error) {
	return func(w *workload) (*ladderOut, error) {
		out := &ladderOut{}
		err := spawn(exe, out, "-child", "ladder", "-workload", w.name, "-procs", "1")
		return out, err
	}
}

// harness drives workloads through run and ladder — child processes in
// the command, in-process calls in the tests — and prints the ledger.
type harness struct {
	seed   int64
	scale  float64 // 1 in the command; the smoke test shrinks the command counts
	out    io.Writer
	run    func(runSpec) (*runOut, error)
	ladder func(*workload) (*ladderOut, error)
}

// ledgerReps is the number of repetitions per workload in the
// all-workload command and in each of -selfcheck's two sets: the n
// behind every median they print.
const ledgerReps = 7

// setupsPerRep is how often each repetition's set-up process builds and
// preloads the rig. Set-up takes 1-10 ms, and the first eight to twelve
// builds of a process take two to four times as long as the rest (a
// cold heap: fresh pages fault in until the collector starts recycling
// dead rigs), so the median of fifteen sat on the edge between the two
// and moved by 26 % between two sets. Of forty-five, at least thirty are
// warm.
const setupsPerRep = 45

// scaled shrinks a command count by the harness scale, keeping it
// divisible among the tenants.
func (h *harness) scaled(ops int) int {
	ops = int(float64(ops) * h.scale)
	return ops - ops%tenantCount
}

func (h *harness) spec(w *workload) runSpec {
	return runSpec{Workload: w.name, Seed: h.seed, Buffer: w.traced, Ops: h.scaled(w.ops), Setups: 1, Procs: 1}
}

// checked runs one spec and applies the output checks every run must
// pass: no failed command, the generator's own command stream, no NAND
// protocol error, no analyzer violation.
func (h *harness) checked(w *workload, s runSpec) (*runOut, error) {
	o, err := h.run(s)
	if err != nil {
		return nil, err
	}
	want, err := w.generatorDigest(s.Seed, s.Ops)
	switch {
	case err != nil:
		return nil, err
	case o.Failed != 0:
		return nil, fmt.Errorf("%s: %d of %d commands failed", w.name, o.Failed, o.Ops)
	case o.StreamDigest != want:
		return nil, fmt.Errorf("%s: rig saw command stream %s, the generator issues %s", w.name, o.StreamDigest, want)
	case o.NandProtocolErrors != 0:
		return nil, fmt.Errorf("%s: %d NAND protocol errors", w.name, o.NandProtocolErrors)
	case o.Violations != 0:
		return nil, fmt.Errorf("%s: analyze reports %d protocol violations", w.name, o.Violations)
	case h.scale == 1 && !s.HW && s.Ops == w.ops && highestPercentile(o.LatSamples) < tailPercentile:
		return nil, fmt.Errorf("%s: %d latency samples cannot carry p%v", w.name, o.LatSamples, tailPercentile)
	}
	return o, nil
}

// model is what the modeled drive reported; runs of one (workload,
// seed, command count) must agree on it exactly, traced or not.
type model struct {
	events            uint64
	pagesMoved        int
	virtualPs         int64
	latP50Ps, latP999 int64
}

func modelOf(o *runOut) model {
	return model{o.Events, o.PagesMoved, o.VirtualPs, o.LatP50Ps, o.LatP999Ps}
}

func sameModel(w *workload, what string, a, b *runOut) error {
	if modelOf(a) != modelOf(b) {
		return fmt.Errorf("%s: %s changed the model: %+v vs %+v", w.name, what, modelOf(a), modelOf(b))
	}
	return nil
}

// endToEndMetrics derives the nine end-to-end metrics from a workload's
// repetitions and its HW twin.
func endToEndMetrics(w *workload, reps []*runOut, twin *runOut) (*ledger, error) {
	for _, r := range reps[1:] {
		if err := sameModel(w, "repeating the run", reps[0], r); err != nil {
			return nil, err
		}
	}
	for _, r := range append([]*runOut{twin}, reps...) {
		if r.SimNs <= 0 || r.VirtualPs <= 0 || r.PagesMoved <= 0 {
			return nil, fmt.Errorf("%s: a run took %d host ns and %d virtual ps and moved %d pages: nothing to derive a rate from", w.name, r.SimNs, r.VirtualPs, r.PagesMoved)
		}
	}
	hw := modelMBps(twin.PagesMoved, twin.PageBytes, twin.VirtualPs)
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, r := range reps {
		for _, ns := range r.SetupNs {
			add("setup_s", float64(ns)/1e9)
		}
		mbps := modelMBps(r.PagesMoved, r.PageBytes, r.VirtualPs)
		add("sim_hostops_per_s", hostopsPerS(r))
		add("events_per_hostop", float64(r.Events)/float64(r.Ops))
		add("allocs_per_hostop", float64(r.Mallocs)/float64(r.Ops))
		add("peak_rss_mb", float64(r.PeakRSSKB)*1024/1e6)
		add("model_mbps", mbps)
		add("model_lat_p50_us", float64(r.LatP50Ps)/1e6)
		add("model_lat_p999_us", float64(r.LatP999Ps)/1e6)
		add("model_vs_hw_pct", 100*mbps/hw)
	}
	l := newLedger(endToEnd)
	for name, v := range samples {
		if err := l.put(name, v...); err != nil {
			return nil, err
		}
	}
	if err := l.close(); err != nil {
		return nil, err
	}
	return l, nil
}

func (h *harness) twin(w *workload) (*runOut, error) {
	s := h.spec(w)
	s.HW, s.Buffer = true, false
	return h.checked(w, s)
}

// rep is one end-to-end repetition: the measured run in one process and
// the set-ups in another, so the dead rigs of forty-five builds do not
// set the VmHWM that peak_rss_mb reads (they did: 46-71 MB against 39-43
// on the 8x8 rigs).
func (h *harness) rep(w *workload) (*runOut, error) {
	r, err := h.checked(w, h.spec(w))
	if err != nil {
		return nil, err
	}
	s := h.spec(w)
	s.Ops, s.Setups = 0, setupsPerRep
	setups, err := h.run(s)
	if err != nil {
		return nil, err
	}
	r.SetupNs = setups.SetupNs
	return r, nil
}

// layerPass runs everything the per-layer metrics need for w. reps, if
// any, are the untraced repetitions the pass must not disagree with.
func (h *harness) layerPass(w *workload, reps []*runOut) (*ledger, error) {
	r := layerRuns{w: w}
	var err error
	base := h.spec(w)
	timed, span, ref, alt := base, base, base, base
	timed.Timed = true
	span.Ops, span.Buffer = min(base.Ops, h.scaled(w.sample)), true
	ref.Ops, ref.Buffer = span.Ops, false
	alt.Procs = altProcs
	for _, j := range []struct {
		into **runOut
		spec runSpec
	}{{&r.base, base}, {&r.timed, timed}, {&r.span, span}, {&r.spanRef, ref}, {&r.alt, alt}} {
		if j.spec == base && r.base != nil {
			// Same spec, same run: the traced workload's span sample
			// is its base run.
			*j.into = r.base
			continue
		}
		if *j.into, err = h.checked(w, j.spec); err != nil {
			return nil, err
		}
	}
	if r.twin, err = h.twin(w); err != nil {
		return nil, err
	}
	if r.ladder, err = h.ladder(w); err != nil {
		return nil, err
	}
	if len(reps) > 0 {
		if err := sameModel(w, "the layer pass", reps[0], r.base); err != nil {
			return nil, err
		}
	}
	for _, c := range []struct {
		what string
		a, b *runOut
	}{
		{"arming the Submit timer and shard telemetry", r.base, r.timed},
		{"tracing", r.spanRef, r.span},
		{"GOMAXPROCS", r.base, r.alt},
	} {
		if err := sameModel(w, c.what, c.a, c.b); err != nil {
			return nil, err
		}
	}
	return layerMetrics(r)
}

// printLedger writes one workload's metrics by name.
func (h *harness) printLedger(title string, l *ledger) {
	fmt.Fprintf(h.out, "%s\n  %-30s %-10s %14s %14s %14s %3s  %-7s %-6s  %s\n", title, "metric", "unit", "median", "q1", "q3", "n", "clock", "better", "bound / should move")
	for _, d := range l.decls {
		v, note := l.vals[d.name], d.moves
		if d.bound > 0 {
			note = fmt.Sprintf("%g%%", 100*d.bound)
		}
		if flag := l.flags[d.name]; flag != "" {
			note = flag
		}
		fmt.Fprintf(h.out, "  %-30s %-10s %14.6g %14.6g %14.6g %3d  %-7s %-6s  %s\n", d.name, d.unit, v.median, v.q1, v.q3, v.n, d.clock, d.better, note)
	}
}

func (h *harness) title(w *workload, what string) string {
	return fmt.Sprintf("%s  %s  seed=%d  %d commands  GOMAXPROCS=1", w.name, what, h.seed, h.scaled(w.ops))
}

// contractRun is BENCHMARK.json's command: one workload, measured for
// about `seconds` of repetitions (or one layer pass), ending in the
// contract's one-line JSON result.
func (h *harness) contractRun(w *workload, seconds time.Duration, layers bool) error {
	var l *ledger
	var attempted int
	if layers {
		var err error
		if l, err = h.layerPass(w, nil); err != nil {
			return err
		}
		attempted = h.scaled(w.ops)
		h.printLedger(h.title(w, "layer pass"), l)
	} else {
		twin, err := h.twin(w)
		if err != nil {
			return err
		}
		// At least three repetitions for a median; after that, only
		// while another one of average length still fits the budget.
		var reps []*runOut
		start := time.Now()
		for {
			r, err := h.rep(w)
			if err != nil {
				return err
			}
			reps = append(reps, r)
			spent := time.Since(start)
			fits := spent+spent/time.Duration(len(reps)) <= seconds
			if (len(reps) >= 3 && !fits) || (len(reps) >= 2 && spent > seconds*3/2) {
				break
			}
		}
		if l, err = endToEndMetrics(w, reps, twin); err != nil {
			return err
		}
		attempted = len(reps) * h.scaled(w.ops)
		h.printLedger(h.title(w, fmt.Sprintf("end to end, %d repetitions", len(reps))), l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: attempted, Metrics: map[string]value{}}
	for _, d := range l.decls {
		// The JSON line carries BENCHMARK.json's metrics, which every
		// workload reports; the table above it has the others too.
		if d.only == "" {
			result.Metrics[d.name] = value{l.vals[d.name].median, d.unit}
		}
	}
	return json.NewEncoder(h.out).Encode(result)
}

// endToEndSet runs reps repetitions of every workload round-robin — so a
// fast or slow machine phase lands on a few repetitions of every
// workload instead of all of one — and derives each workload's
// end-to-end ledger.
func (h *harness) endToEndSet(reps int) (map[string]*ledger, map[string][]*runOut, error) {
	runs := map[string][]*runOut{}
	for i := 0; i < reps; i++ {
		for j := range workloads {
			w := &workloads[j]
			r, err := h.rep(w)
			if err != nil {
				return nil, nil, err
			}
			runs[w.name] = append(runs[w.name], r)
		}
	}
	ledgers := map[string]*ledger{}
	for j := range workloads {
		w := &workloads[j]
		twin, err := h.twin(w)
		if err != nil {
			return nil, nil, err
		}
		if ledgers[w.name], err = endToEndMetrics(w, runs[w.name], twin); err != nil {
			return nil, nil, err
		}
	}
	a, b := runs["drive_read_8x8"], runs["drive_read_8x8_cluster"]
	if a[0].StreamDigest != b[0].StreamDigest {
		return nil, nil, fmt.Errorf("drive_read_8x8 and drive_read_8x8_cluster saw different command streams: %s vs %s", a[0].StreamDigest, b[0].StreamDigest)
	}
	return ledgers, runs, nil
}

// ledgerAll is the one command: every workload end to end, then its
// layer pass.
func (h *harness) ledgerAll(reps int) error {
	fmt.Fprintf(h.out, "machine: %d CPUs (%s), %s, %s/%s\n", runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	ledgers, runs, err := h.endToEndSet(reps)
	if err != nil {
		return err
	}
	for j := range workloads {
		w := &workloads[j]
		h.printLedger(h.title(w, fmt.Sprintf("end to end, %d repetitions", reps)), ledgers[w.name])
		l, err := h.layerPass(w, runs[w.name])
		if err != nil {
			return err
		}
		h.printLedger(h.title(w, "layer pass"), l)
	}
	return nil
}

// cpuModel names the processor for the ledger's header line.
func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// selfcheck measures two complete end-to-end sets back to back and
// fails if any metric's two medians differ, in either direction, by
// more than the bound: the code is the same, so a second set that reads
// 30 % better is as much a failure to resolve the bound as one that
// reads 30 % worse.
func (h *harness) selfcheck() error {
	first, _, err := h.endToEndSet(ledgerReps)
	if err != nil {
		return err
	}
	second, _, err := h.endToEndSet(ledgerReps)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Fprintf(h.out, "%-24s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].vals[d.name].median, second[w.name].vals[d.name].median
			// The ledger has refused NaN and Inf; a median of 0 has no
			// relative difference.
			if a <= 0 || b <= 0 {
				return fmt.Errorf("selfcheck: %s %s has medians %v and %v: no relative difference to check", w.name, d.name, a, b)
			}
			differ := math.Abs(b-a) / min(a, b)
			mark := ""
			if differ > d.bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(h.out, "%-24s %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w.name, d.name, a, b, 100*differ, 100*d.bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
