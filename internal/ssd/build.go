package ssd

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/hwctrl"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wave"
)

// ControllerKind selects which channel controller the SSD uses.
type ControllerKind uint8

const (
	// CtrlHW is the hardware baseline (the paper's "HW" / Cosmos+).
	CtrlHW ControllerKind = iota
	// CtrlBabolRTOS is BABOL on the RTOS software environment.
	CtrlBabolRTOS
	// CtrlBabolCoro is BABOL on the coroutine software environment.
	CtrlBabolCoro
)

func (k ControllerKind) String() string {
	switch k {
	case CtrlHW:
		return "HW"
	case CtrlBabolRTOS:
		return "RTOS"
	default:
		return "Coro"
	}
}

// BuildConfig describes a complete SSD: one or more channels, each with
// its own bus and controller, striped by a shared FTL.
type BuildConfig struct {
	Params         nand.Params    // package preset (geometry, timings)
	Channels       int            // independent channels (default 1)
	Ways           int            // LUNs per channel (defaults to preset wiring)
	RateMT         int            // channel speed in MT/s (default 200)
	Controller     ControllerKind // which controller drives the channel
	CPUMHz         int            // firmware clock for BABOL controllers (default 1000)
	ReservedBlocks int            // FTL over-provisioning per chip (default 2)
	Slots          int            // in-flight DRAM staging slots (default 2×ways)
	WithECC        bool
	// MapShards splits the FTL's L2P map into independently locked
	// LPN-range shards. 0 sizes the map to the kernel shard layout:
	// one map shard per cluster shard on sharded rigs, one per chip
	// otherwise. Pure concurrency/memory granularity — results are
	// identical at any count.
	MapShards int
	// MapCacheBytes bounds the DRAM budget of the FTL's translation
	// map (ftl.Config.MapCacheBytes): map pages are demand-paged under
	// this budget and misses are charged as NAND reads through the
	// ordinary ops path. 0 keeps the whole map resident (the legacy
	// model, byte-identical results).
	MapCacheBytes int64
	// UseCopyback relocates GC pages with NAND copyback (BABOL only).
	UseCopyback bool
	// SuspendReads lets host reads preempt GC erases (BABOL only).
	SuspendReads bool
	Record       bool // capture the channel waveform
	// TxnQueue overrides BABOL's transaction scheduler (default RR).
	TxnQueue sched.TxnQueue
	// Tracer receives the controllers' event streams; multi-channel rigs
	// tag each channel's events with its index. nil disables tracing.
	// The hardware baseline controller emits no events.
	//
	// Concurrency contract: a rig is single-threaded (everything runs on
	// its kernel's goroutine), so the Tracer sees strictly sequential
	// calls from this rig — but when many rigs run concurrently (the
	// exp package's parallel sweeps), each rig must get its own Tracer;
	// give each rig a private obs.Buffer and merge after the fact rather
	// than sharing one sink.
	Tracer obs.Tracer
	// Observe additionally aggregates the event stream into Rig.Metrics
	// (it composes with Tracer: both sinks see every event).
	Observe bool
	// Faults, when non-nil, arms the plan's campaigns on the LUNs they
	// target (global chip numbering: channel*Ways + way). Fault hits are
	// emitted as obs.KindFault events on the targeted chip's channel.
	Faults *fault.Plan
	// NoCoroPool disables the per-rig coroutine pool: every operation
	// gets a fresh goroutine, as before pooling existed. Virtual-time
	// results are identical either way (the pooled-determinism tests
	// compare the two paths byte for byte); the switch costs ~5 allocs
	// and a goroutine spawn per operation.
	NoCoroPool bool
	// Shards > 0 splits the rig across event-loop shards: the host
	// complex on shard 0 and contiguous channel groups on the rest, run
	// concurrently under a conservative time-window cluster (see
	// sim.Cluster) whose lookahead is hostHop. Shards is capped at
	// 1+Channels; Shards == 1 keeps the windowed protocol on a single
	// kernel (the ablation baseline). Results are byte-identical at
	// every shard count; sharded rigs must be driven with Rig.Run, not
	// Rig.Kernel.
	Shards int
	// ShardTelemetry arms the cluster's shard instrument (sharded rigs
	// only): per-shard event counts and barrier/exec wall-clock,
	// readable live via Rig.Telemetry.Snapshot while Run is in flight.
	// Mirrors the fault injector's nil-check-disarmed idiom: off costs
	// one branch per window, on stays allocation-free in steady state,
	// and armed telemetry never changes simulation results or traces
	// (TestShardedTelemetryInvariance compares on vs. off byte for
	// byte).
	ShardTelemetry bool
}

// hostHop is the modeled host↔channel-controller hop latency of a
// sharded rig — the latency of crossing the interconnect between the
// host-side assembly (FTL, ECC, slot management) and a channel
// controller. It doubles as the cluster's lookahead: a window of
// hostHop can run on every shard in parallel.
const hostHop = sim.Microsecond

// Rig is a fully wired SSD plus handles to its parts. The singular
// Channel/Babol/HW fields alias channel 0 for the common single-channel
// case; the slices cover every channel.
type Rig struct {
	Kernel  *sim.Kernel
	Channel *bus.Channel
	DRAM    *dram.Buffer
	SSD     *SSD
	FTL     *ftl.FTL

	Channels []*bus.Channel

	// Babol is non-nil for BABOL controller kinds.
	Babol  *core.Controller
	Babols []*core.Controller
	// HW is non-nil for the hardware baseline.
	HW  *hwctrl.Controller
	HWs []*hwctrl.Controller

	// Metrics is the cross-channel roll-up of the controllers' event
	// streams; non-nil iff BuildConfig.Observe was set.
	Metrics *obs.Metrics

	// CoroPool is the rig's shared operation-coroutine pool (nil for
	// hardware-only rigs or when BuildConfig.NoCoroPool is set). All
	// BABOL controllers on the rig draw from it; it lives across
	// operations, GC cycles, and fault-recovery reissues, and is closed
	// by Rig.Close after the controllers have aborted their operations.
	// Sharded rigs keep one pool per shard (a pool is single-threaded,
	// and each shard is its own goroutine); CoroPool then aliases the
	// first of CoroPools.
	CoroPool *coro.Pool
	// CoroPools lists every per-shard pool of a sharded rig.
	CoroPools []*coro.Pool

	// Cluster is non-nil for sharded rigs (BuildConfig.Shards > 0):
	// Kernel is then the host shard's kernel, and the rig must be driven
	// with Run (which runs the cluster and folds the per-domain trace
	// buffers into Tracer/Metrics), never Kernel.Run alone.
	Cluster *sim.Cluster

	// Telemetry is the cluster's shard instrument; non-nil iff
	// BuildConfig.ShardTelemetry was set on a sharded rig. Its Snapshot
	// is safe to read from any goroutine while Run is in flight.
	Telemetry *sim.Telemetry

	// sink and domBufs implement the sharded trace discipline: each
	// domain traces into its own buffer (so no Tracer sees calls from
	// two shards), and Run merges them into sink by (time, domain).
	sink    obs.Tracer
	domBufs []*obs.Buffer
	// tracer is the resolved event sink of an unsharded rig (cfg.Tracer
	// composed with Metrics); HostTracer hands it to host-side emitters.
	tracer obs.Tracer
}

// Close releases controller resources: in-flight operation coroutines
// are aborted, then the rig's coroutine pool (if any) stops its parked
// workers, returning the process goroutine count to baseline.
func (r *Rig) Close() {
	for _, c := range r.Babols {
		c.Close()
	}
	if len(r.CoroPools) > 0 {
		for _, p := range r.CoroPools {
			p.Close()
		}
		return
	}
	if r.CoroPool != nil {
		r.CoroPool.Close()
	}
}

// Build assembles an SSD per cfg.
func Build(cfg BuildConfig) (*Rig, error) {
	if cfg.Params.Name == "" {
		cfg.Params = nand.Hynix()
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Ways == 0 {
		cfg.Ways = cfg.Params.LUNsPerChannel
	}
	if cfg.RateMT == 0 {
		cfg.RateMT = 200
	}
	if cfg.CPUMHz == 0 {
		cfg.CPUMHz = 1000
	}
	if cfg.ReservedBlocks == 0 {
		cfg.ReservedBlocks = 2
	}
	if cfg.Slots == 0 {
		cfg.Slots = 2 * cfg.Ways * cfg.Channels
	}

	shards := cfg.Shards
	if max := 1 + cfg.Channels; shards > max {
		shards = max
	}

	var cluster *sim.Cluster
	var hostDom *sim.Domain
	var k *sim.Kernel
	if shards > 0 {
		cluster = sim.NewCluster(shards, hostHop)
		hostDom = cluster.AddDomain(0)
		k = hostDom.Kernel()
	} else {
		k = sim.NewKernel()
	}
	geo := cfg.Params.Geometry
	slotSize := geo.PageBytes + geo.SpareBytes
	memSize := cfg.Slots*slotSize + cfg.Channels*(128<<10) // slots + per-controller scratch
	mem := dram.New(memSize)

	mapShards := cfg.MapShards
	if mapShards == 0 && shards > 0 {
		// Size the map to the kernel shard layout: lock domains in the
		// translation map line up one-to-one with the cluster's event
		// domains, so a sharded rig never funnels its channels through
		// fewer map locks than it has kernels.
		mapShards = shards
	}
	f, err := ftl.NewWithConfig(ftl.Config{
		Geometry: geo, Chips: cfg.Ways * cfg.Channels,
		ReservedBlocks: cfg.ReservedBlocks,
		MapShards:      mapShards, MapCacheBytes: cfg.MapCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	rig := &Rig{Kernel: k, DRAM: mem, FTL: f, Cluster: cluster}

	tracer := cfg.Tracer
	if cfg.Observe {
		rig.Metrics = obs.NewMetrics()
		if tracer != nil {
			tracer = obs.Multi{rig.Metrics, tracer}
		} else {
			tracer = rig.Metrics
		}
	}
	rig.tracer = tracer
	if cluster != nil && tracer != nil {
		// Sharded trace discipline: one buffer per domain, merged into
		// the real sink (including Metrics) by Rig.Run — a Tracer must
		// never see calls from two shards.
		rig.sink = tracer
		rig.domBufs = make([]*obs.Buffer, 1+cfg.Channels)
		for i := range rig.domBufs {
			rig.domBufs[i] = &obs.Buffer{}
		}
	}

	poolByShard := make(map[int]*coro.Pool)
	var backends []Backend
	for c := 0; c < cfg.Channels; c++ {
		chK := k
		var chDom *sim.Domain
		chTracer := tracer
		if cluster != nil {
			chDom = cluster.AddDomain(shardOf(c, cfg.Channels, shards))
			chK = chDom.Kernel()
			chTracer = domainTracer(rig.domBufs, 1+c)
		}
		var rec *wave.Recorder
		if cfg.Record {
			rec = wave.NewRecorder()
		}
		ch, err := bus.New(chK, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: cfg.RateMT}, onfi.DefaultTiming(), rec)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Ways; i++ {
			lun, err := nand.NewLUN(cfg.Params)
			if err != nil {
				return nil, err
			}
			if cfg.Faults != nil {
				if inj := cfg.Faults.Injector(c*cfg.Ways+i, obs.OnChannel(chTracer, c), i); inj != nil {
					lun.SetFaults(inj)
				}
			}
			ch.Attach(lun)
		}
		rig.Channels = append(rig.Channels, ch)

		switch cfg.Controller {
		case CtrlHW:
			hw := hwctrl.New(chK, ch, mem)
			rig.HWs = append(rig.HWs, hw)
			backends = append(backends, NewHWBackend(hw))
		case CtrlBabolRTOS, CtrlBabolCoro:
			profile := cpumodel.RTOS()
			if cfg.Controller == CtrlBabolCoro {
				profile = cpumodel.Coro()
			}
			cpu, err := cpumodel.New(chK, cfg.CPUMHz, profile)
			if err != nil {
				return nil, err
			}
			// One pool per shard, shared by the channel controllers on
			// it: all of a shard's controllers run on one goroutine, so
			// the pool's single-threaded contract holds. Unsharded rigs
			// are one implicit shard.
			shard := 0
			if cluster != nil {
				shard = shardOf(c, cfg.Channels, shards)
			}
			pool := poolByShard[shard]
			if pool == nil && !cfg.NoCoroPool {
				pool = coro.NewPool()
				poolByShard[shard] = pool
				if cluster != nil {
					rig.CoroPools = append(rig.CoroPools, pool)
				}
				if rig.CoroPool == nil {
					rig.CoroPool = pool
				}
			}
			ctrl, err := core.New(core.Config{
				Kernel: chK, Channel: ch, DRAM: mem, CPU: cpu, TxnQueue: cfg.TxnQueue,
				Tracer:   obs.OnChannel(chTracer, c),
				CoroPool: pool, DisableCoroPool: cfg.NoCoroPool,
			})
			if err != nil {
				return nil, err
			}
			rig.Babols = append(rig.Babols, ctrl)
			backends = append(backends, NewBabolBackend(ctrl))
		default:
			return nil, fmt.Errorf("ssd: unknown controller kind %d", cfg.Controller)
		}
		if cluster != nil {
			// Everything past this point talks to the channel through the
			// cross-domain funnel.
			backends[c] = wrapShard(backends[c], hostDom, chDom)
		}
	}
	if cluster != nil && cfg.ShardTelemetry {
		// Arming ends the cluster's build phase: every domain is in.
		rig.Telemetry = cluster.ArmTelemetry()
	}
	rig.Channel = rig.Channels[0]
	if len(rig.Babols) > 0 {
		rig.Babol = rig.Babols[0]
	}
	if len(rig.HWs) > 0 {
		rig.HW = rig.HWs[0]
	}
	var backend Backend
	if cfg.Channels == 1 {
		backend = backends[0]
	} else {
		backend = NewMultiBackend(cfg.Ways, backends)
	}

	ssdTracer := tracer
	if cluster != nil {
		// The SSD assembly is host-domain code; its recovery events go
		// through the host's buffer like everything else.
		ssdTracer = domainTracer(rig.domBufs, 0)
	}
	drive, err := New(Config{
		Kernel: k, Backend: backend, FTL: f, DRAM: mem,
		SlotBase: 0, Slots: cfg.Slots, WithECC: cfg.WithECC,
		UseCopyback: cfg.UseCopyback, SuspendReads: cfg.SuspendReads,
		Tracer: ssdTracer,
	})
	if err != nil {
		return nil, err
	}
	rig.SSD = drive
	return rig, nil
}
