package exp

import (
	"fmt"

	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Many-tenant workload experiment: a fixed cast of tenants — a
// sequential streamer, a zipfian hot-set reader, a bursty writer, and a
// mixed read/write/trim tenant — share one drive through the multi-queue
// host frontend, each on its own submission queue and address-space
// slice. Every tenant also runs solo on an identical rig, so the report
// shows what contention costs each of them (solo→contended latency
// slowdown) and how evenly the drive served them (Jain's fairness
// index). The contended run's command stream can be recorded for replay.

// WorkloadConfig shapes the tenant scenario.
type WorkloadConfig struct {
	// Queues is the frontend submission-queue count; 0 defaults to one
	// queue per tenant. Tenants map to queue (index mod Queues), so
	// fewer queues than tenants forces queue sharing.
	Queues int
	// Arbitration picks the dispatch policy (RoundRobin default).
	Arbitration hic.Arbitration
	// Recorder, when non-nil, captures the contended run's command
	// stream at the frontend enqueue boundary (hic JSONL trace).
	Recorder *hic.Recorder
	// Tenants overrides the default cast; nil picks DefaultTenants.
	Tenants []hic.TenantSpec
}

// WorkloadPoint is one tenant's row: solo versus contended latency,
// throughput, and issued mix.
type WorkloadPoint struct {
	Name      string
	Queue     int
	Mix       string
	SoloMean  sim.Duration
	SoloP99   sim.Duration
	ContMean  sim.Duration
	ContP99   sim.Duration
	Slowdown  float64 // contended mean / solo mean
	ContIOPS  float64
	Completed int
	Failed    int
	Reads     int
	Writes    int
	Trims     int
}

// WorkloadResult is the full experiment: per-tenant rows plus the
// contended run's roll-ups.
type WorkloadResult struct {
	Points []WorkloadPoint
	// Fairness is Jain's index over the tenants' contended completion
	// counts.
	Fairness float64
	// Span is the contended run's extent (first issue to last
	// completion).
	Span sim.Duration
}

// workloadWays is the channel width of the workload rig.
const workloadWays = 4

// workloadRig is the build shape the tenant runs and their replay share.
// Tenant interference needs queue contention, not capacity, and small
// pages keep preload and figure-scale op counts fast.
func workloadRig() ssd.BuildConfig {
	return ssd.BuildConfig{
		Params: shrunkHynix(64, 16), Ways: workloadWays, RateMT: 200,
		Controller: ssd.CtrlBabolCoro, CPUMHz: 1000,
	}
}

// workloadSlicePages is each default tenant's address-space slice size.
const workloadSlicePages = 256

// DefaultTenants is the standard cast, ops operations each: a
// sequential reader (the bandwidth hog), a zipfian hot-set reader (the
// latency-sensitive tenant), an on/off bursty writer (the interference
// source), and a mixed read/write/trim tenant (the realist). Slices are
// disjoint, seeds fixed, so the scenario is fully reproducible.
func DefaultTenants(ops int) []hic.TenantSpec {
	return []hic.TenantSpec{
		{
			Name: "seq-reader", Queue: 0, QueueDepth: 8, NumOps: ops,
			Pattern:    hic.Sequential,
			SliceStart: 0 * workloadSlicePages, SlicePages: workloadSlicePages,
			Seed: 11,
		},
		{
			Name: "hot-reader", Queue: 1, QueueDepth: 8, NumOps: ops,
			Pattern: hic.Zipfian, ZipfHot: 64,
			SliceStart: 1 * workloadSlicePages, SlicePages: workloadSlicePages,
			Seed: 13,
		},
		{
			Name: "bursty-writer", Queue: 2, QueueDepth: 4, NumOps: ops,
			Pattern: hic.Random, Mix: hic.Mix{WritePct: 100},
			BurstOn: 200 * sim.Microsecond, BurstOff: 200 * sim.Microsecond,
			SliceStart: 2 * workloadSlicePages, SlicePages: workloadSlicePages,
			Seed: 17,
		},
		{
			Name: "mixed", Queue: 3, QueueDepth: 4, NumOps: ops,
			Pattern: hic.Random, Mix: hic.Mix{ReadPct: 70, WritePct: 20, TrimPct: 10},
			SliceStart: 3 * workloadSlicePages, SlicePages: workloadSlicePages,
			Seed: 19,
		},
	}
}

// Workloads runs the many-tenant contention experiment: each tenant
// solo, then all together, on identically configured rigs. The jobs run
// under the standard sweep runner, so results and merged traces are
// byte-identical at any Options.Parallel.
func Workloads(opt Options, cfg WorkloadConfig) (*WorkloadResult, error) {
	opt = opt.withDefaults()
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = DefaultTenants(opt.Ops)
	}
	queues := cfg.Queues
	if queues <= 0 {
		queues = len(tenants)
	}
	// Remap tenants onto the available queues (identity when one queue
	// per tenant).
	specs := make([]hic.TenantSpec, len(tenants))
	for i, t := range tenants {
		t.Queue = i % queues
		specs[i] = t
	}

	// Jobs 0..n-1: each tenant solo. Job n: everyone together. The
	// contended job runs last so a merged trace reads solo runs first —
	// the same order a serial comparison would.
	n := len(specs)
	soloResults := make([][]*hic.TenantResult, n)
	var contended []*hic.TenantResult
	var contendedSpan sim.Duration
	err := sweep(opt, n+1, func(i int, tracer obs.Tracer) error {
		if i < n {
			res, _, err := workloadRun(opt, cfg, queues, specs[i:i+1], nil, tracer)
			if err != nil {
				return fmt.Errorf("workload solo %s: %w", specs[i].Name, err)
			}
			soloResults[i] = res
			return nil
		}
		res, span, err := workloadRun(opt, cfg, queues, specs, cfg.Recorder, tracer)
		if err != nil {
			return fmt.Errorf("workload contended: %w", err)
		}
		contended, contendedSpan = res, span
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &WorkloadResult{Span: contendedSpan}
	var sum, sumSq float64
	for i, spec := range specs {
		solo, cont := soloResults[i][0], contended[i]
		p := WorkloadPoint{
			Name: spec.Name, Queue: spec.Queue, Mix: spec.Mix.String(),
			SoloMean: solo.MeanLatency(), SoloP99: solo.LatencyPercentile(99),
			ContMean: cont.MeanLatency(), ContP99: cont.LatencyPercentile(99),
			ContIOPS:  cont.IOPS(),
			Completed: cont.Completed, Failed: cont.Failed,
			Reads: cont.Reads, Writes: cont.Writes, Trims: cont.Trims,
		}
		if p.SoloMean > 0 {
			p.Slowdown = float64(p.ContMean) / float64(p.SoloMean)
		}
		sum += float64(cont.Completed)
		sumSq += float64(cont.Completed) * float64(cont.Completed)
		out.Points = append(out.Points, p)
	}
	if sumSq > 0 {
		out.Fairness = sum * sum / (float64(len(specs)) * sumSq)
	}
	return out, nil
}

// workloadFrontend shapes the rig's frontend: per-queue windows of 8,
// and a controller command-slot pool of 2 slots per channel way — small
// enough that queues back up and arbitration actually chooses (an
// uncapped frontend dispatches everything on arrival and RR ≡ WRR).
// Under WRR the first queue is the privileged class with a 4-command
// burst per turn.
func workloadFrontend(queues int, arb hic.Arbitration, rec *hic.Recorder) hic.FrontendConfig {
	qcs := make([]hic.QueueConfig, queues)
	for i := range qcs {
		qcs[i] = hic.QueueConfig{Depth: 8, Weight: 1}
	}
	if arb == hic.WeightedRoundRobin {
		qcs[0].Weight = 4
	}
	return hic.FrontendConfig{
		Queues: qcs, Arbitration: arb,
		MaxInFlight: 2 * workloadWays,
		Recorder:    rec,
	}
}

// workloadDrive is the one body every source on the workload rig runs
// through: build the rig, preload its first working pages so reads hit
// mapped pages, wire the multi-queue frontend, let start attach the
// source, run the rig to quiescence, and check the frontend drained.
func workloadDrive(opt Options, fc hic.FrontendConfig, working int, tracer obs.Tracer,
	start func(k *sim.Kernel, f *hic.Frontend, host obs.Tracer) error) error {
	rig, err := opt.build(workloadRig(), tracer)
	if err != nil {
		return err
	}
	defer rig.Close()
	if lp := rig.FTL.LogicalPages(); working > lp {
		return fmt.Errorf("workload spans %d pages but drive has %d", working, lp)
	}
	if err := rig.SSD.Preload(working); err != nil {
		return err
	}
	f, err := hic.NewFrontend(rig.Kernel, rig.SSD, fc)
	if err != nil {
		return err
	}
	if err := start(rig.Kernel, f, rig.HostTracer()); err != nil {
		return err
	}
	rig.Run()
	if !f.Drained() {
		return fmt.Errorf("frontend not drained: %d in flight, %d pending", f.InFlight(), f.Pending())
	}
	return nil
}

// workloadRun drives the given tenants to completion over the union of
// their slices and reports their results and the run's extent.
func workloadRun(opt Options, cfg WorkloadConfig, queues int, tenants []hic.TenantSpec, rec *hic.Recorder, tracer obs.Tracer) ([]*hic.TenantResult, sim.Duration, error) {
	working := 0
	for _, t := range tenants {
		working = max(working, t.SliceStart+t.SlicePages)
	}
	var results []*hic.TenantResult
	err := workloadDrive(opt, workloadFrontend(queues, cfg.Arbitration, rec), working, tracer,
		func(k *sim.Kernel, f *hic.Frontend, host obs.Tracer) (err error) {
			results, err = hic.RunTenants(k, f, tenants, host)
			return err
		})
	if err != nil {
		return nil, 0, err
	}
	var start, end sim.Time
	for i, res := range results {
		if res.Done() != tenants[i].NumOps {
			return nil, 0, fmt.Errorf("tenant %s: only %d of %d ops terminated",
				res.Name, res.Done(), tenants[i].NumOps)
		}
		if res.Failed != 0 {
			return nil, 0, fmt.Errorf("tenant %s: %d ops failed", res.Name, res.Failed)
		}
		if i == 0 || res.Start < start {
			start = res.Start
		}
		if res.End > end {
			end = res.End
		}
	}
	return results, end.Sub(start), nil
}

// ReplayWorkload replays a recorded tenant trace on a fresh rig with
// the same build shape as the recording runs, preloaded over the span
// the trace touches, and returns the replay's aggregate result. The
// host command stream is reproduced exactly: re-recording the replay
// (cfg.Recorder) yields the original JSONL byte for byte.
func ReplayWorkload(opt Options, cfg WorkloadConfig, entries []hic.RecordEntry) (*hic.Result, error) {
	opt = opt.withDefaults()
	queues := cfg.Queues
	if queues <= 0 {
		queues = len(DefaultTenants(opt.Ops))
	}
	working := 0
	for _, e := range entries {
		working = max(working, e.LPN+1)
	}
	var res *hic.Result
	err := sweep(opt, 1, func(_ int, tracer obs.Tracer) error {
		err := workloadDrive(opt, workloadFrontend(queues, cfg.Arbitration, cfg.Recorder), working, tracer,
			func(k *sim.Kernel, f *hic.Frontend, host obs.Tracer) (err error) {
				res, err = hic.Replay(k, f, entries, host)
				return err
			})
		if err == nil && res.Done() != len(entries) {
			err = fmt.Errorf("only %d of %d replayed commands terminated", res.Done(), len(entries))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WorkloadCSV renders the experiment as machine-readable CSV.
func WorkloadCSV(r *WorkloadResult) string {
	out := "tenant,queue,mix,completed,failed,reads,writes,trims," +
		"solo_mean_ps,solo_p99_ps,cont_mean_ps,cont_p99_ps,slowdown,cont_iops,fairness\n"
	for _, p := range r.Points {
		out += fmt.Sprintf("%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.1f,%.4f\n",
			p.Name, p.Queue, p.Mix, p.Completed, p.Failed, p.Reads, p.Writes, p.Trims,
			p.SoloMean, p.SoloP99, p.ContMean, p.ContP99, p.Slowdown, p.ContIOPS, r.Fairness)
	}
	return out
}

// RenderWorkload formats the experiment as the tenant-contention table.
func RenderWorkload(r *WorkloadResult, arb hic.Arbitration) string {
	header := fmt.Sprintf("%-14s %-3s %-11s %10s %10s %10s %10s %9s %9s",
		"tenant", "q", "mix", "solo-mean", "cont-mean", "solo-p99", "cont-p99", "slowdown", "iops")
	var rows []string
	for _, p := range r.Points {
		rows = append(rows, fmt.Sprintf("%-14s %-3d %-11s %10s %10s %10s %10s %8.2fx %9.0f",
			p.Name, p.Queue, p.Mix, us(p.SoloMean), us(p.ContMean),
			us(p.SoloP99), us(p.ContP99), p.Slowdown, p.ContIOPS))
	}
	rows = append(rows, fmt.Sprintf("fairness (Jain, completions) = %.3f over %s contended span", r.Fairness, us(r.Span)))
	title := fmt.Sprintf("Tenant QoS under contention (%s arbitration, %d-way shrunk Hynix)\n", arb, workloadWays)
	return table(title+header, rows)
}
