package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/coro"
	"repro/internal/ftl"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// ladderOut is the ladder: host ns per call into each layer's public
// functions in isolation, plus the machine calibration around it.
type ladderOut struct {
	EventNs, WindowNs, ResumeNs float64
	NandReadNs                  float64
	LookupNs, AllocateNs        float64
	FrontendNs                  float64
	EmitNs, EncodeNs, DecodeNs  float64
	// MachineIdx is a fixed single-goroutine xorshift loop, in million
	// iterations per second, averaged over a run before and one after
	// the ladder. It says what kind of machine phase the numbers were
	// taken in and is never folded into another metric.
	MachineIdx float64
}

// unitCost times fn, which performs n unit operations, five times and
// returns the median ns per operation.
func unitCost(n int, fn func()) float64 {
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

var calibState = uint64(88172645463325252)

func machineIdx() float64 {
	const iters = 20_000_000
	x := calibState
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibState = x
	return iters / 1e6 / time.Since(t0).Seconds()
}

// ladder measures the unit costs on w's geometry.
func (w *workload) ladder() (*ladderOut, error) {
	out := &ladderOut{}
	before := machineIdx()
	cfg := w.rig()
	geo := cfg.Params.Geometry

	// sim: After + Step with 64 events pending.
	k := sim.NewKernel()
	var tick func()
	tick = func() { k.After(64*sim.Microsecond, tick) }
	for i := 0; i < 64; i++ {
		k.After(sim.Duration(i)*sim.Microsecond, tick)
	}
	out.EventNs = unitCost(1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			k.Step()
		}
	})

	// sim.Cluster: one window of a 2-shard cluster in which each domain
	// fires one event and posts one to the other.
	const windows = 20000
	out.WindowNs = unitCost(windows, func() {
		c := sim.NewCluster(2, sim.Microsecond)
		doms := []*sim.Domain{c.AddDomain(0), c.AddDomain(1)}
		left := []int{windows, windows}
		var fns [2]func()
		for i := range doms {
			i := i
			fns[i] = func() {
				if left[i]--; left[i] > 0 {
					doms[i].Kernel().After(sim.Microsecond, fns[i])
					doms[i].Post(doms[1-i], func() {})
				}
			}
			doms[i].Kernel().After(0, fns[i])
		}
		c.Run()
	})

	// coro: pooled Resume ↔ Yield round trip.
	pool := coro.NewPool()
	stop := false
	co := pool.Get(func(y *coro.Yielder) error {
		for !stop {
			y.Yield()
		}
		return nil
	})
	out.ResumeNs = unitCost(200_000, func() {
		for i := 0; i < 200_000; i++ {
			co.Resume()
		}
	})
	stop = true
	co.Resume()
	pool.Close()

	// nand: READ latch sequence + tR + DataOutInto at w's page size.
	lun, err := nand.NewLUN(cfg.Params)
	if err != nil {
		return nil, err
	}
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}}
	if err := lun.SeedPage(addr.Row, make([]byte, geo.PageBytes)); err != nil {
		return nil, err
	}
	latches := geo.AppendAddrLatches([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, addr)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	dst := make([]byte, geo.PageBytes)
	now := sim.Time(0)
	var nandErr error
	out.NandReadNs = unitCost(20000, func() {
		for i := 0; i < 20000; i++ {
			if err := lun.Latch(now, latches); err != nil {
				nandErr = err
			}
			now = now.Add(2 * cfg.Params.TR)
			if err := lun.DataOutInto(now, dst); err != nil {
				nandErr = err
			}
			now = now.Add(sim.Microsecond)
		}
	})
	if nandErr != nil {
		return nil, fmt.Errorf("ladder nand read: %w", nandErr)
	}

	// ftl: Lookup on the preloaded range; AllocateWrite overwrites with
	// GC relief when the drive fills.
	f, err := ftl.NewWithConfig(ftl.Config{Geometry: geo, Chips: cfg.Channels * cfg.Ways, ReservedBlocks: 2})
	if err != nil {
		return nil, err
	}
	for lpn := 0; lpn < w.preload; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			return nil, err
		}
	}
	out.LookupNs = unitCost(1_000_000, func() {
		lpn := 0
		for i := 0; i < 1_000_000; i++ {
			f.Lookup(lpn)
			lpn = (lpn + 4099) % w.preload
		}
	})
	var ftlErr error
	out.AllocateNs = unitCost(100_000, func() {
		lpn := 0
		for i := 0; i < 100_000; i++ {
			if err := allocateWithRelief(f, lpn); err != nil {
				ftlErr = err
			}
			lpn = (lpn + 4099) % w.preload
		}
	})
	if ftlErr != nil {
		return nil, fmt.Errorf("ladder ftl allocate: %w", ftlErr)
	}

	// hic: Enqueue → dispatch → complete on a device that does nothing.
	fk := sim.NewKernel()
	dev := &nullDevice{}
	front, err := hic.NewFrontend(fk, dev, tenantFrontend())
	if err != nil {
		return nil, err
	}
	done := func(error) {}
	out.FrontendNs = unitCost(1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			front.Enqueue(i%tenantCount, hic.Command{Kind: hic.KindRead, LPN: i, Done: done})
			dev.complete()
		}
	})
	if !front.Drained() {
		return nil, fmt.Errorf("ladder frontend did not drain")
	}

	// obs: a real event mix — 500 commands of w's own stream, buffered —
	// emitted into a fresh buffer, encoded as JSONL and decoded.
	sample, err := w.run(runSpec{Workload: w.name, Seed: 1, Buffer: true, Ops: 500})
	if err != nil {
		return nil, fmt.Errorf("ladder obs sample: %w", err)
	}
	events := sample.sampleEvents
	out.EmitNs = unitCost(len(events), func() {
		var b obs.Buffer
		for _, e := range events {
			b.Event(e)
		}
	})
	var raw bytes.Buffer
	var obsErr error
	out.EncodeNs = unitCost(len(events), func() {
		raw.Reset()
		jw := obs.NewJSONLWriter(&raw)
		for _, e := range events {
			jw.Event(e)
		}
		if err := jw.Flush(); err != nil {
			obsErr = err
		}
	})
	out.DecodeNs = unitCost(len(events), func() {
		if _, err := obs.ReadJSONL(bytes.NewReader(raw.Bytes())); err != nil {
			obsErr = err
		}
	})
	if obsErr != nil {
		return nil, fmt.Errorf("ladder jsonl: %w", obsErr)
	}

	out.MachineIdx = (before + machineIdx()) / 2
	return out, nil
}

// allocateWithRelief overwrites lpn, collecting the emptiest sealed
// block of every chip when the drive is out of space.
func allocateWithRelief(f *ftl.FTL, lpn int) error {
	for attempt := 0; attempt < 100; attempt++ {
		if _, err := f.AllocateWrite(lpn); err == nil {
			return nil
		}
		for chip := 0; chip < f.Chips(); chip++ {
			victim, live, ok := f.GCCandidate(chip)
			if !ok {
				continue
			}
			cleared := true
			for _, l := range live {
				if _, err := f.RelocateForGC(l); err != nil {
					cleared = false
					break
				}
			}
			if cleared {
				f.OnErased(chip, victim)
			}
		}
	}
	return fmt.Errorf("GC relief made no progress on LPN %d", lpn)
}

// layerRuns is everything one workload's layer pass ran.
type layerRuns struct {
	w       *workload
	base    *runOut // the workload as the end-to-end repetitions run it
	timed   *runOut // same, with the Submit timer and shard telemetry armed
	span    *runOut // the first w.sample commands, buffered and analyzed
	spanRef *runOut // the same commands, tracer off
	twin    *runOut // the HW twin
	alt     *runOut // the base run at GOMAXPROCS=altProcs
	ladder  *ladderOut
}

// altProcs is the GOMAXPROCS of the layer pass's extra run. Every other
// run is at 1; 2 is a different setting on any box, so the run is never
// a copy of the base run.
const altProcs = 2

func hostopsPerS(o *runOut) float64 {
	return float64(o.Ops-o.Failed) / (float64(o.SimNs) / 1e9)
}

// layerMetrics derives every per-layer metric defined on the workload.
// Ratios are divided plainly: a zero denominator gives a non-finite
// value, which the ledger refuses. A layer that did not run reports the
// 0 its own counter shows and none of the ratios over that counter. A
// host-time difference that noise turned negative is reported as
// measured and flagged, not clamped.
func layerMetrics(r layerRuns) (*ledger, error) {
	l := newLedger(declsOn(perLayer, r.w))
	b, t, s, ld := r.base, r.timed, r.span, r.ladder
	ops := float64(b.Ops)
	hostNs := float64(b.SimNs)
	var err error
	put := func(name string, v float64) {
		if e := l.put(name, v); e != nil && err == nil {
			err = e
		}
	}

	put("sim.events", float64(b.Events))
	put("sim.host_ns_per_event", hostNs/float64(b.Events))
	put("sim.rtf", float64(b.VirtualPs)/1e12/(hostNs/1e9))
	put("sim.unit_event_ns", ld.EventNs)
	put("sim.windows", float64(t.Windows))
	put("sim.posts", float64(t.Posts))
	var exec, barrier, maxEv, sumEv float64
	for i := range t.ShardEvents {
		exec += float64(t.ShardExecNs[i])
		barrier += float64(t.ShardBarrNs[i])
		sumEv += float64(t.ShardEvents[i])
		maxEv = max(maxEv, float64(t.ShardEvents[i]))
	}
	put("sim.shard_exec_ms", exec/1e6)
	put("sim.shard_barrier_ms", barrier/1e6)
	if r.w.has("cluster") {
		put("sim.events_per_window", float64(t.Events)/float64(t.Windows))
		put("sim.barrier_share", barrier/(exec+barrier))
		put("sim.shard_imbalance", maxEv*float64(len(t.ShardEvents))/sumEv)
	}
	put("sim.unit_window_ns", ld.WindowNs)

	put("coro.spawned", float64(b.CoroSpawned))
	put("coro.unit_resume_ns", ld.ResumeNs)

	resumesPerOp := float64(s.OpsResumed) / float64(s.CoreOps)
	put("core.ops", float64(b.CoreOps))
	put("core.txns_per_op", float64(b.CoreTxns)/float64(b.CoreOps))
	put("core.resumes_per_op", resumesPerOp)
	put("core.admission_waits", float64(b.CoreAdmissionWaits))
	put("core.poll_resubmits", float64(s.PollResubmits))
	put("ufsm.instrs_per_txn", float64(s.HWInstrs)/float64(s.CoreTxns))

	put("bus.busy_share", float64(b.BusBusyPs)/(float64(b.Channels)*float64(b.VirtualPs)))
	put("bus.bytes_per_hostop", float64(b.BusBytes)/ops)
	put("cpumodel.software_share", float64(b.CPUBusyPs)/float64(b.CPUBusyPs+b.BusBusyPs))
	put("core.queue_wait_share", float64(s.QueuePs)/float64(s.LatencyPs))
	put("bus.channel_share", float64(s.ChannelPs)/float64(s.LatencyPs))
	put("nand.cell_share", float64(s.CellPs)/float64(s.LatencyPs))
	put("cpumodel.firmware_share", float64(s.FirmwarePs)/float64(s.LatencyPs))

	put("nand.reads", float64(b.NandReads))
	put("nand.programs", float64(b.NandPrograms))
	put("nand.erases", float64(b.NandErases))
	put("nand.status_reads_per_op", float64(b.NandStatusReads)/ops)
	put("nand.protocol_errors", float64(b.NandProtocolErrors))
	put("nand.unit_read_ns", ld.NandReadNs)

	// Preloaded pages count as host writes, so WAF has a denominator on
	// the read workloads too (and is 1 there: no GC).
	put("ftl.host_writes", float64(b.FTLHostWrites))
	put("ftl.flash_writes", float64(b.FTLFlashWrites))
	put("ftl.waf", float64(b.FTLFlashWrites)/float64(b.FTLHostWrites))
	put("ftl.gc_moves", float64(b.FTLGCMoves))
	put("ftl.gc_erases", float64(b.FTLGCErases))
	put("ftl.map_hits", float64(b.MapHits))
	if r.w.has("mapcache") {
		put("ftl.map_hit_rate", float64(b.MapHits)/float64(b.MapHits+b.MapMisses))
	}
	put("ftl.map_misses", float64(b.MapMisses))
	put("ftl.map_evictions", float64(b.MapEvictions))
	put("ftl.map_flushes", float64(b.MapFlushes))
	put("ftl.unit_lookup_ns", ld.LookupNs)
	put("ftl.unit_allocate_ns", ld.AllocateNs)

	put("ssd.host_reads", float64(b.SSDReads))
	put("ssd.host_writes", float64(b.SSDWrites))
	put("ssd.host_trims", float64(b.SSDTrims))
	put("ssd.gc_cycles", float64(b.SSDGCCycles))
	put("ssd.recovered_ops", float64(b.SSDRecovered))
	put("ssd.submit_sync_ns_per_op", float64(t.SubmitNs)/ops)

	put("hic.enqueued", float64(b.HicEnqueued))
	put("hic.dispatched", float64(b.HicDispatched))
	put("hic.failed", float64(b.HicFailed))
	if r.w.has("frontend") {
		// Each tenant's completions per virtual second, and its p99.
		var rates []float64
		lo, hi := float64(b.TenantP99Ps[0]), float64(b.TenantP99Ps[0])
		for i, done := range b.TenantDone {
			rates = append(rates, float64(done)/(float64(b.TenantSpanPs[i])/1e12))
			lo, hi = min(lo, float64(b.TenantP99Ps[i])), max(hi, float64(b.TenantP99Ps[i]))
		}
		put("hic.fairness_jain", jain(rates))
		put("hic.tenant_p99_spread", hi/lo)
	}
	put("hic.unit_frontend_ns", ld.FrontendNs)

	// The span sample's sim phase against its tracer-off twin: the same
	// commands on the same rig, so the difference is the tracer's.
	tracedNs, refNs := float64(s.SimNs-s.PipelineNs), float64(r.spanRef.SimNs)
	if tracedNs <= refNs {
		for _, name := range []string{"obs.trace_overhead_x", "obs.emit_ns_per_event"} {
			l.flags[name] = "UNRESOLVED: the traced sample ran no slower than its tracer-off twin; noise exceeds the tracer's cost"
		}
	}
	put("obs.events", float64(s.ObsEvents))
	put("obs.events_per_hostop", float64(s.ObsEvents)/float64(s.Ops))
	put("obs.trace_overhead_x", tracedNs/refNs)
	put("obs.emit_ns_per_event", (tracedNs-refNs)/float64(s.ObsEvents))
	put("obs.unit_emit_ns", ld.EmitNs)
	put("obs.unit_jsonl_encode_ns", ld.EncodeNs)
	put("obs.unit_jsonl_decode_ns", ld.DecodeNs)
	put("analyze.ingest_kevents_per_s", float64(s.TraceEvents)/1e3/(float64(s.AnalyzeNs)/1e9))
	put("analyze.spans", float64(s.Spans))
	put("analyze.violations", float64(s.Violations))

	put("hwctrl.model_mbps", modelMBps(r.twin.PagesMoved, r.twin.PageBytes, r.twin.VirtualPs))
	put("hwctrl.model_lat_p999_us", float64(r.twin.LatP999Ps)/1e6)
	put("hwctrl.sim_hostops_per_s", hostopsPerS(r.twin))

	put("runtime.gc_cycles", float64(b.GCCycles))
	put("runtime.gc_pause_ms", float64(b.GCPauseNs)/1e6)
	put("runtime.heap_bytes_per_hostop", float64(b.AllocBytes)/ops)
	put("runtime.goroutines_peak", float64(b.Goroutines))
	put("runtime.machine_idx", ld.MachineIdx)
	put("runtime.procs_speed_x", hostopsPerS(b)/hostopsPerS(r.alt))

	// The budget of the base run: each ladder cost times how often the
	// base run made that call. Trace events exist only where the base
	// run traces; there each costs an emit, an encode and a decode.
	shares := map[string]float64{
		"sim":  ld.EventNs * float64(b.Events),
		"coro": ld.ResumeNs * resumesPerOp * float64(b.CoreOps),
		"nand": ld.NandReadNs * float64(b.NandReads),
		"ftl":  ld.LookupNs*float64(b.SSDReads) + ld.AllocateNs*float64(b.FTLFlashWrites),
		"hic":  ld.FrontendNs * float64(b.HicEnqueued),
		"obs":  (ld.EmitNs + ld.EncodeNs + ld.DecodeNs) * float64(b.TraceEvents),
	}
	rest := hostNs
	for layer, ns := range shares {
		put(layer+".est_share", ns/hostNs)
		rest -= ns
	}
	if rest < 0 {
		l.flags["unattributed_share"] = "OVERRUN: the ladder's unit costs times the run's counts exceed its host time; the est_share budget does not hold on this run"
	}
	put("unattributed_share", rest/hostNs)

	if err != nil {
		return nil, err
	}
	return l, l.close()
}

// jain is Jain's fairness index (Σx)²/(n·Σx²).
func jain(x []float64) float64 {
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	return sum * sum / (float64(len(x)) * sq)
}
