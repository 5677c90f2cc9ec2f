package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// A workload is one named set of inputs: a rig, a closed-loop host
// command generator seeded from -seed, and a fixed command count per
// repetition (fixed, so the modeled drive's numbers repeat bit for bit
// and only the simulator's host time varies between repetitions).
type workload struct {
	name string
	why  string
	// rig returns the BABOL-RTOS build; the HW twin swaps Controller.
	rig     func() ssd.BuildConfig
	preload int
	// ops is the host command count of one repetition at scale 1.
	ops int
	// tenants selects the multi-queue frontend + tenant engine instead
	// of the plain hic.Run loop.
	tenants bool
	// random draws uniform LPNs from the seed; otherwise the stream is
	// sequential and the seed has nothing to vary.
	random bool
	depth  int
	// traced workloads carry an obs.Buffer tracer and continue the
	// measured phase through JSONL encode → decode → analyze → render.
	traced bool
	// sample is how many commands the layer pass's span sample buffers:
	// an obs.Buffer holds every event until the run ends (~36 per
	// command on the read rigs, ~180 on the polling-heavy tenant rig),
	// so the sample is sized to ~0.7 M events, not to the repetition.
	sample int
}

// hynix16 is the paper's Hynix package shrunk to 16 blocks per LUN: the
// read workloads touch 64 pages per channel, so capacity only costs
// build time.
func hynix16() nand.Params {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	return p
}

// tenantNAND is the small fast package of the tenant workload: 512-byte
// pages and 20/50/200 µs cell times put firmware and FTL work, not
// transfer time, on the critical path, and 64×16-page blocks make GC
// run within a repetition.
func tenantNAND() nand.Params {
	p := nand.Hynix()
	p.Geometry.Planes = 1
	p.Geometry.BlocksPerLUN = 64
	p.Geometry.PagesPerBlk = 16
	p.Geometry.PageBytes = 512
	p.Geometry.SpareBytes = 64
	p.TR = 20 * sim.Microsecond
	p.TPROG = 50 * sim.Microsecond
	p.TBERS = 200 * sim.Microsecond
	p.JitterPct = 0
	p.RawBitErrorPer512B = 0
	return p
}

const (
	tenantSlice = 1900 // LPNs per tenant; 4 × 1900 = 7600 of 7936 logical pages
	tenantCount = 4
	// smallestOps is the command count of the smallest repetition and
	// span sample: the size the latency tail percentile is chosen for.
	smallestOps = 20000
)

func readRig(channels, shards int) func() ssd.BuildConfig {
	return func() ssd.BuildConfig {
		return ssd.BuildConfig{
			Params: hynix16(), Channels: channels, Ways: 8, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, Shards: shards,
		}
	}
}

var workloads = []workload{
	{
		name: "chan_read_1x8",
		why:  "Fig. 10 corner, 1ch x 8way sequential read QD16: sim/coro/core/ufsm/bus/nand do the work; frontend, cluster, GC, obs bypassed",
		rig:  readRig(1, 0), preload: 64, ops: 600000, depth: 16, sample: smallestOps,
	},
	{
		name: "drive_read_8x8",
		why:  "full 8ch x 8way drive, random read QD64, one kernel: LUN collisions make a real tail; ssd striping and slots join the hot path",
		rig:  readRig(8, 0), preload: 512, ops: 200000, depth: 64, random: true, sample: smallestOps,
	},
	{
		name: "drive_read_8x8_cluster",
		why:  "byte-identical stream on the 2-shard windowed cluster (1us host hop): the exercise/bypass pair for sim.Cluster and the shard funnel",
		rig:  readRig(8, 2), preload: 512, ops: 200000, depth: 64, random: true, sample: smallestOps,
	},
	{
		name: "tenants_mixed_2x4",
		why:  "4 tenants (seq, zipf, bursty writer, r70/w20/t10) over the WRR frontend on a small fast drive with a 2KiB map cache: writes, trims, GC, map misses",
		rig: func() ssd.BuildConfig {
			return ssd.BuildConfig{
				Params: tenantNAND(), Channels: 2, Ways: 4, RateMT: 200,
				Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, MapCacheBytes: 2048,
			}
		},
		preload: tenantCount * tenantSlice, ops: tenantCount * 50000, tenants: true, sample: 4000,
	},
	{
		name: "traced_read_1x8",
		why:  "chan_read_1x8's rig and stream with an obs.Buffer tracer, then JSONL encode/decode and analyze: what a -trace + analyze user pays",
		rig:  readRig(1, 0), preload: 64, ops: smallestOps, depth: 16, traced: true, sample: smallestOps,
	},
}

// has reports whether w has the property a metricDecl.only names.
func (w *workload) has(property string) bool {
	switch cfg := w.rig(); property {
	case "cluster":
		return cfg.Shards > 0
	case "frontend":
		return w.tenants
	case "mapcache":
		return cfg.MapCacheBytes > 0
	}
	panic("unknown workload property " + property)
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runSpec is one run of one workload; it crosses the process boundary
// as child flags.
type runSpec struct {
	Workload string
	Seed     int64
	HW       bool // the HW twin: same everything, ssd.CtrlHW
	// Buffer carries an obs.Buffer tracer with Observe and continues the
	// measured phase through the JSONL/analyze pipeline.
	Buffer bool
	// Timed arms what can be reached from outside without changing the
	// model: a timer around the Submit boundary and shard telemetry.
	Timed  bool
	Ops    int // host commands (tenant workloads: total across tenants); 0 only sets up
	Setups int // how many times to build+preload; the last rig runs
	Procs  int // GOMAXPROCS of the child that runs it
}

// runOut is what one run measured, raw: counts, virtual picoseconds and
// host nanoseconds. Metrics are derived from it in the parent, so the
// two clocks meet only in explicitly named ratios.
type runOut struct {
	Ops, Done, Failed int
	PagesMoved        int // successful reads + writes; trims move no data
	PageBytes         int
	Channels          int
	VirtualPs         int64 // first issue → last completion
	LatP50Ps          int64
	LatP999Ps         int64
	LatSamples        int
	TenantP99Ps       []int64
	TenantDone        []int
	TenantSpanPs      []int64
	StreamDigest      string

	SetupNs []int64
	SimNs   int64 // host ns of the measured phase

	Events      uint64 // sim.Kernel.Executed summed over all kernels
	Mallocs     uint64
	AllocBytes  uint64
	GCCycles    uint32
	GCPauseNs   uint64
	Goroutines  int
	PeakRSSKB   int64
	SubmitNs    int64 // host ns inside Submit (Timed runs)
	PipelineNs  int64 // host ns of encode+decode+analyze+render (Buffer runs)
	AnalyzeNs   int64 // the analyze+render part of it
	TraceEvents int

	// Public Stats() of the layers, read once at the end of the run.
	Windows, Posts           uint64
	ShardEvents              []uint64
	ShardExecNs, ShardBarrNs []int64
	CoroSpawned              int
	CoreOps, CoreTxns        uint64
	CoreAdmissionWaits       uint64
	BusBusyPs                int64
	BusBytes                 uint64
	CPUBusyPs                int64
	NandReads, NandPrograms  uint64
	NandErases               uint64
	NandStatusReads          uint64
	NandProtocolErrors       uint64
	FTLHostWrites            uint64
	FTLFlashWrites           uint64
	FTLGCMoves, FTLGCErases  uint64
	MapHits, MapMisses       uint64
	MapEvictions, MapFlushes uint64
	SSDReads, SSDWrites      uint64
	SSDTrims, SSDGCCycles    uint64
	SSDRecovered             uint64
	HicEnqueued              uint64
	HicDispatched, HicFailed uint64

	// From the obs stream and analyze (Buffer runs).
	ObsEvents     uint64
	OpsResumed    uint64
	PollResubmits uint64
	HWInstrs      uint64
	Spans         int
	Violations    int
	QueuePs       int64 // Σ over complete spans
	ChannelPs     int64
	CellPs        int64
	FirmwarePs    int64
	LatencyPs     int64

	// sampleEvents is the buffered trace of a Buffer run, for the ladder
	// to replay; it does not cross the process boundary.
	sampleEvents []obs.Event
}

// tap sits on the hic.Submitter boundary of every run. It digests the
// command stream so runs can prove they saw the same one, and in the
// layer pass times the synchronous part of Submit.
type tap struct {
	sub     hic.Submitter
	digests map[string]*streamDigest
	timed   bool
	depth   int
	syncNs  int64
}

// streamDigest is an order-sensitive multiplicative hash over one
// tenant's (kind, LPN) sequence. Digests are kept per tenant because each tenant draws
// from its own RNG in issue order, while the interleaving of tenants
// depends on completion times and so differs between BABOL and HW.
type streamDigest struct {
	h uint64
	n uint64
}

func (t *tap) Submit(c hic.Command) {
	d := t.digests[c.Tenant]
	if d == nil {
		d = &streamDigest{h: 14695981039346656037}
		t.digests[c.Tenant] = d
	}
	d.h = (d.h ^ (uint64(c.LPN)<<2 | uint64(c.Kind))) * 1099511628211
	d.n++
	if !t.timed || t.depth > 0 {
		// A completion that fires inside Submit issues the slot's next
		// command from inside it; only the outermost call is timed.
		t.sub.Submit(c)
		return
	}
	t.depth++
	t0 := time.Now()
	t.sub.Submit(c)
	t.syncNs += time.Since(t0).Nanoseconds()
	t.depth--
}

func (t *tap) digest() string {
	names := make([]string, 0, len(t.digests))
	for n := range t.digests {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		d := t.digests[n]
		fmt.Fprintf(h, "%s:%d:%x;", n, d.n, d.h)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// nullDevice is the generator alone: it holds each command until
// complete, so a closed loop refilling itself from Done does not recurse
// once per command.
type nullDevice struct{ held []hic.Command }

func (d *nullDevice) Submit(c hic.Command) { d.held = append(d.held, c) }

// complete finishes every held command, and those their completions
// submit, and reports whether there were any.
func (d *nullDevice) complete() bool {
	busy := len(d.held) > 0
	for n := len(d.held); n > 0; n = len(d.held) {
		c := d.held[n-1]
		d.held = d.held[:n-1]
		c.Done(nil)
	}
	return busy
}

// hostCmds collects what the tenant engine reports per completion; it
// is the only way to pool latencies across tenants, and it carries the
// command kind so trims stay out of the bandwidth.
type hostCmds struct {
	lat    []sim.Duration
	moved  int
	failed int
}

func (h *hostCmds) Event(e obs.Event) {
	if e.Kind != obs.KindHostCmd {
		return
	}
	if e.Err {
		h.failed++
		return
	}
	h.lat = append(h.lat, e.Dur)
	if hic.Kind(e.Cycles) != hic.KindTrim {
		h.moved++
	}
}

// tenantCast is the seq-reader / zipf hot-reader / bursty-writer /
// mixed cast of exp.DefaultTenants on 1900-LPN slices, seeded per run.
func tenantCast(opsEach int, seed int64) []hic.TenantSpec {
	cast := []hic.TenantSpec{
		{Name: "seq-reader", QueueDepth: 8, Pattern: hic.Sequential},
		{Name: "hot-reader", QueueDepth: 8, Pattern: hic.Zipfian, ZipfHot: 64},
		{Name: "bursty-writer", QueueDepth: 4, Pattern: hic.Random, Mix: hic.Mix{WritePct: 100},
			BurstOn: 200 * sim.Microsecond, BurstOff: 200 * sim.Microsecond},
		{Name: "mixed", QueueDepth: 4, Pattern: hic.Random, Mix: hic.Mix{ReadPct: 70, WritePct: 20, TrimPct: 10}},
	}
	for i := range cast {
		cast[i].Queue = i
		cast[i].NumOps = opsEach
		cast[i].SliceStart = i * tenantSlice
		cast[i].SlicePages = tenantSlice
		cast[i].Seed = seed*16 + int64(i) + 1
	}
	return cast
}

func tenantFrontend() hic.FrontendConfig {
	qs := make([]hic.QueueConfig, tenantCount)
	for i := range qs {
		qs[i] = hic.QueueConfig{Depth: 8, Weight: 1}
	}
	qs[0].Weight = 4
	return hic.FrontendConfig{Queues: qs, Arbitration: hic.WeightedRoundRobin, MaxInFlight: 16}
}

// generation is a started workload: what to read once the rig has run.
type generation struct {
	res      *hic.Result
	tenants  []*hic.TenantResult
	cmds     *hostCmds
	frontend *hic.Frontend
}

// generate starts w's closed-loop generator against sub on kernel k.
// The command stream is a pure function of (w, seed, ops).
func (w *workload) generate(k *sim.Kernel, sub hic.Submitter, hostTracer obs.Tracer, seed int64, ops int) (*generation, error) {
	if !w.tenants {
		pattern := hic.Sequential
		if w.random {
			pattern = hic.Random
		}
		res, err := hic.Run(k, sub, hic.Workload{
			Pattern: pattern, Kind: hic.KindRead, NumOps: ops, QueueDepth: w.depth,
			LogicalPages: w.preload, Seed: seed,
		})
		return &generation{res: res}, err
	}
	f, err := hic.NewFrontend(k, sub, tenantFrontend())
	if err != nil {
		return nil, err
	}
	g := &generation{frontend: f, cmds: &hostCmds{lat: make([]sim.Duration, 0, ops)}}
	var tr obs.Tracer = g.cmds
	if hostTracer != nil {
		tr = obs.Multi{g.cmds, hostTracer}
	}
	g.tenants, err = hic.RunTenants(k, f, tenantCast(ops/tenantCount, seed), tr)
	return g, err
}

func newTap(sub hic.Submitter, timed bool) *tap {
	return &tap{sub: sub, digests: map[string]*streamDigest{}, timed: timed}
}

// generatorDigest runs w's generator against a null device. The plain
// loop draws kind and LPN in issue order from one RNG and each tenant
// from its own, so the per-tenant digest does not depend on completion
// timing: every rig fed this (seed, ops) must report the same digest.
func (w *workload) generatorDigest(seed int64, ops int) (string, error) {
	dev := &nullDevice{}
	t := newTap(dev, false)
	k := sim.NewKernel()
	if _, err := w.generate(k, t, nil, seed, ops); err != nil {
		return "", err
	}
	for dev.complete() {
		k.Run() // a tenant in its burst-off phase reissues from the kernel
	}
	return t.digest(), nil
}

// run executes one run in this process and returns what it measured.
func (w *workload) run(spec runSpec) (*runOut, error) {
	if w.tenants && spec.Ops%tenantCount != 0 {
		return nil, fmt.Errorf("%s: %d ops do not split over %d tenants", w.name, spec.Ops, tenantCount)
	}
	cfg := w.rig()
	if spec.HW {
		cfg.Controller = ssd.CtrlHW
	}
	cfg.ShardTelemetry = spec.Timed && cfg.Shards > 0
	var buf *obs.Buffer
	if spec.Buffer {
		buf = &obs.Buffer{}
		cfg.Observe = true
		cfg.Tracer = buf
	}

	out := &runOut{Ops: spec.Ops, PageBytes: cfg.Params.Geometry.PageBytes, Channels: cfg.Channels}
	var rig *ssd.Rig
	for i := 0; i < max(spec.Setups, 1); i++ {
		if rig != nil {
			rig.Close()
		}
		t0 := time.Now()
		r, err := ssd.Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := r.SSD.Preload(w.preload); err != nil {
			return nil, err
		}
		out.SetupNs = append(out.SetupNs, time.Since(t0).Nanoseconds())
		rig = r
	}
	defer rig.Close()
	if spec.Ops == 0 {
		return out, nil
	}

	tp := newTap(rig.SSD, spec.Timed)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	gen, err := w.generate(rig.Kernel, tp, rig.HostTracer(), spec.Seed, spec.Ops)
	if err != nil {
		return nil, err
	}
	rig.Run()
	var report *analyze.Result
	if buf != nil {
		p0 := time.Now()
		if report, err = tracePipeline(buf, out); err != nil {
			return nil, err
		}
		out.PipelineNs = time.Since(p0).Nanoseconds()
	}
	out.SimNs = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	out.Goroutines = runtime.NumGoroutine()
	out.Mallocs = m1.Mallocs - m0.Mallocs
	out.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.GCCycles = m1.NumGC - m0.NumGC
	out.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	out.SubmitNs = tp.syncNs
	out.StreamDigest = tp.digest()

	if err := gen.collect(out); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	readLayers(rig, gen.frontend, out)
	if err := rig.FTL.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%s: FTL invariants: %w", w.name, err)
	}
	if rig.Metrics != nil {
		s := rig.Metrics.Snapshot()
		out.ObsEvents, out.OpsResumed, out.PollResubmits = s.Events, s.OpsResumed, s.PollResubmits
	}
	if report != nil {
		readSpans(report, out)
		out.sampleEvents = buf.Events()
	}
	out.PeakRSSKB, err = peakRSSKB()
	return out, err
}

// collect folds the generator's results into out and checks that every
// command terminated.
func (g *generation) collect(out *runOut) error {
	var lat func(p float64) sim.Duration
	var first, last sim.Time
	if g.res != nil {
		r := g.res
		out.Done, out.Failed, out.PagesMoved, out.LatSamples = r.Done(), r.Failed, r.Completed, r.Completed
		first, last, lat = r.Start, r.End, r.LatencyPercentile
	} else {
		if !g.frontend.Drained() {
			return fmt.Errorf("frontend not drained: %d in flight, %d pending", g.frontend.InFlight(), g.frontend.Pending())
		}
		first = g.tenants[0].Start
		for _, t := range g.tenants {
			out.Done += t.Done()
			out.Failed += t.Failed
			out.TenantDone = append(out.TenantDone, t.Completed)
			out.TenantP99Ps = append(out.TenantP99Ps, int64(t.LatencyPercentile(99)))
			out.TenantSpanPs = append(out.TenantSpanPs, int64(t.Elapsed()))
			if t.Start < first {
				first = t.Start
			}
			if t.End > last {
				last = t.End
			}
		}
		if g.cmds.failed != out.Failed {
			return fmt.Errorf("host-cmd events report %d failures, tenant results %d", g.cmds.failed, out.Failed)
		}
		out.PagesMoved, out.LatSamples = g.cmds.moved, len(g.cmds.lat)
		sorted := g.cmds.lat
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		lat = func(p float64) sim.Duration { return sim.Percentile(sorted, p) }
	}
	if out.Done != out.Ops {
		return fmt.Errorf("%d of %d commands terminated", out.Done, out.Ops)
	}
	out.VirtualPs = int64(last.Sub(first))
	if out.LatSamples == 0 || out.VirtualPs <= 0 {
		return fmt.Errorf("%d commands succeeded in %d virtual ps: no latency or bandwidth to report", out.LatSamples, out.VirtualPs)
	}
	out.LatP50Ps, out.LatP999Ps = int64(lat(50)), int64(lat(tailPercentile))
	return nil
}

// readLayers reads the layers' public counters at the end of a run.
func readLayers(rig *ssd.Rig, f *hic.Frontend, out *runOut) {
	if c := rig.Cluster; c != nil {
		for i := 0; i < c.Shards(); i++ {
			out.Events += c.Kernel(i).Executed()
		}
		out.Windows, out.Posts = c.Windows(), c.Posts()
	} else {
		out.Events = rig.Kernel.Executed()
	}
	if t := rig.Telemetry; t != nil {
		for _, s := range t.Snapshot().Shards {
			out.ShardEvents = append(out.ShardEvents, s.Events)
			out.ShardExecNs = append(out.ShardExecNs, s.Exec.Nanoseconds())
			out.ShardBarrNs = append(out.ShardBarrNs, s.Barrier.Nanoseconds())
		}
	}
	pools := rig.CoroPools
	if len(pools) == 0 && rig.CoroPool != nil {
		pools = append(pools, rig.CoroPool)
	}
	for _, p := range pools {
		out.CoroSpawned += p.Spawned()
	}
	for _, c := range rig.Babols {
		s := c.Stats()
		out.CoreOps += s.OpsCompleted
		out.CoreTxns += s.TxnsExecuted
		out.CoreAdmissionWaits += s.AdmissionWaits
		out.CPUBusyPs += int64(c.CPU().Stats().BusyTime)
	}
	for _, ch := range rig.Channels {
		s := ch.Stats()
		out.BusBusyPs += int64(s.BusyTime)
		out.BusBytes += s.BytesOut + s.BytesIn
		for i := 0; i < ch.Chips(); i++ {
			n := ch.Chip(i).Stats()
			out.NandReads += n.Reads
			out.NandPrograms += n.Programs
			out.NandErases += n.Erases
			out.NandStatusReads += n.StatusReads
			out.NandProtocolErrors += n.ProtocolErrors
		}
	}
	fs, cs := rig.FTL.Stats(), rig.FTL.CacheStats()
	out.FTLHostWrites, out.FTLFlashWrites, out.FTLGCMoves, out.FTLGCErases = fs.HostWrites, fs.FlashWrites, fs.GCMoves, fs.GCErases
	out.MapHits, out.MapMisses, out.MapEvictions, out.MapFlushes = cs.Hits, cs.Misses, cs.Evictions, cs.Flushes
	ss := rig.SSD.Stats()
	out.SSDReads, out.SSDWrites, out.SSDTrims, out.SSDGCCycles, out.SSDRecovered = ss.HostReads, ss.HostWrites, ss.HostTrims, ss.GCCycles, ss.RecoveredOps
	if f != nil {
		for q := 0; q < f.Queues(); q++ {
			s := f.Stats(q)
			out.HicEnqueued += s.Enqueued
			out.HicDispatched += s.Dispatched
			out.HicFailed += s.Failed
		}
	}
}

// tracePipeline is what follows a `-trace` run for its user: the
// buffered events are written as JSONL, read back, analyzed and
// rendered.
func tracePipeline(buf *obs.Buffer, out *runOut) (*analyze.Result, error) {
	var raw bytes.Buffer
	jw := obs.NewJSONLWriter(&raw)
	buf.ReplayInto(jw)
	if err := jw.Flush(); err != nil {
		return nil, fmt.Errorf("jsonl encode: %w", err)
	}
	out.TraceEvents = buf.Len()
	events, err := obs.ReadJSONL(&raw)
	if err != nil {
		return nil, fmt.Errorf("jsonl decode: %w", err)
	}
	if len(events) != buf.Len() {
		return nil, fmt.Errorf("jsonl round trip: wrote %d events, read %d", buf.Len(), len(events))
	}
	for _, e := range events {
		if e.Kind == obs.KindHWInstr {
			out.HWInstrs++
		}
	}
	t2 := time.Now()
	res := analyze.Analyze(events)
	if res.Render() == "" {
		return nil, fmt.Errorf("analyze rendered nothing")
	}
	out.AnalyzeNs = time.Since(t2).Nanoseconds()
	return res, nil
}

func readSpans(res *analyze.Result, out *runOut) {
	out.Violations = len(res.Violations)
	for i := range res.Spans {
		s := &res.Spans[i]
		if !s.Complete {
			continue
		}
		out.Spans++
		out.LatencyPs += int64(s.Latency)
		out.QueuePs += int64(s.QueueWait())
		out.ChannelPs += int64(s.ChannelTime)
		out.CellPs += int64(s.CellTime())
		out.FirmwarePs += int64(s.FirmwareTime)
	}
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
