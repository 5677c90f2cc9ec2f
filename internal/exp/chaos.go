package exp

import (
	"bytes"
	"fmt"

	"repro/internal/fault"
	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// ChaosPoint is one seeded chaos run: a mixed read/write workload with
// GC pressure driven through a BABOL-controlled SSD while a randomized
// (but seed-reproducible) fault plan torments the NAND — stuck-busy
// LUNs, program/erase fail storms, uncorrectable-ECC bursts, erratic
// tR. The run passes when the rig drains (no livelock), the FTL's
// invariants hold, and every logical page still mapped to a chip the
// plan never touched reads back byte-exact.
type ChaosPoint struct {
	Seed       int64
	Completed  int    // host commands that terminated (including failures)
	Failed     int    // host commands that terminated with an error
	FaultHits  uint64 // injected faults that actually fired
	Recoveries uint64 // controller RESET escalations (core.Stats.Recoveries)
	Reissues   uint64 // SSD-level retries after a RESET revived a chip
	Offlined   uint64 // chips removed from service
	ReadOnly   bool   // drive degraded to read-only mode
	Verified   int    // LPNs byte-verified intact on unfaulted chips
}

// chaosWays fixes the rig width: 4 LUNs on one channel gives the fault
// planner healthy chips to spare while keeping runs fast.
const chaosWays = 4

// Chaos runs one soak per seed and reports what the drive survived.
// Each run derives its fault plan from its seed alone, so any chaos
// result reproduces exactly by rerunning with the same seed.
func Chaos(opt Options, seeds []int64) ([]ChaosPoint, error) {
	opt = opt.withDefaults()
	out := make([]ChaosPoint, len(seeds))
	err := sweep(opt, len(seeds), func(i int, tracer obs.Tracer) error {
		p, err := chaosRun(opt, seeds[i], tracer)
		if err != nil {
			return fmt.Errorf("chaos seed %d: %w", seeds[i], err)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chaosRun drives one seeded soak and checks the survival contract.
func chaosRun(opt Options, seed int64, tracer obs.Tracer) (ChaosPoint, error) {
	ops := opt.Ops
	// Small blocks so GC pressure arrives within a few hundred ops.
	params := shrunkHynix(16, 4)
	geo := params.Geometry
	rows := uint32(geo.BlocksPerLUN * geo.PagesPerBlk)
	plan := fault.Randomized(seed, chaosWays, rows, params.TR)

	rig, err := opt.build(ssd.BuildConfig{
		Params: params, Ways: chaosWays, RateMT: 200,
		Controller: ssd.CtrlBabolCoro, CPUMHz: 1000,
		WithECC: true, Faults: &plan,
	}, tracer)
	if err != nil {
		return ChaosPoint{}, err
	}
	defer rig.Close()

	// Working set small enough that overwrites create garbage quickly,
	// forcing GC (and its erases) into the fault window.
	working := 64
	if working > rig.FTL.LogicalPages() {
		working = rig.FTL.LogicalPages()
	}
	if err := rig.SSD.Preload(working); err != nil {
		return ChaosPoint{}, err
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindWrite, ReadPercent: 50,
		NumOps: ops, QueueDepth: 8, LogicalPages: working, Seed: seed,
	})
	if err != nil {
		return ChaosPoint{}, err
	}
	rig.Run()

	// Survival contract, part 1: the rig always drains. Individual
	// commands may fail (uncorrectable reads, offline chips, read-only
	// mode) but every one of them must terminate.
	if res.Done() != ops {
		return ChaosPoint{}, fmt.Errorf("livelock: only %d of %d ops terminated", res.Done(), ops)
	}
	if err := rig.FTL.CheckInvariants(); err != nil {
		return ChaosPoint{}, fmt.Errorf("FTL invariants violated: %w", err)
	}

	// Survival contract, part 2: no data loss on surviving chips. Every
	// LPN still mapped to a chip the plan never targeted must read back
	// the canonical pattern from the array.
	touched := map[int]bool{}
	for _, c := range plan.Touched() {
		touched[c] = true
	}
	verified := 0
	want := make([]byte, geo.PageBytes)
	for lpn := 0; lpn < working; lpn++ {
		loc, ok := rig.FTL.Lookup(lpn)
		if !ok || touched[loc.Chip] {
			continue
		}
		lun := rig.Channels[loc.Chip/chaosWays].Chip(loc.Chip % chaosWays)
		page, err := lun.PeekPage(loc.Row)
		if err != nil {
			return ChaosPoint{}, fmt.Errorf("peek LPN %d: %w", lpn, err)
		}
		ssd.FillPattern(want, lpn)
		if !bytes.Equal(page[:geo.PageBytes], want) {
			return ChaosPoint{}, fmt.Errorf("data loss: LPN %d at chip %d %+v does not match its pattern", lpn, loc.Chip, loc.Row)
		}
		verified++
	}

	var recoveries uint64
	for _, c := range rig.Babols {
		recoveries += c.Stats().Recoveries
	}
	st := rig.SSD.Stats()
	return ChaosPoint{
		// Completed counts terminations (successes + failures) — the
		// survival metric; Failed breaks out the failures.
		Seed: seed, Completed: res.Done(), Failed: res.Failed,
		FaultHits: plan.Hits(), Recoveries: recoveries, Reissues: st.RecoveredOps,
		Offlined: st.OfflinedChips, ReadOnly: st.ReadOnly, Verified: verified,
	}, nil
}

// ChaosCSV renders the soak results as machine-readable CSV.
func ChaosCSV(points []ChaosPoint) string {
	out := "seed,completed,failed,fault_hits,recoveries,reissues,offlined,read_only,verified\n"
	for _, p := range points {
		ro := 0
		if p.ReadOnly {
			ro = 1
		}
		out += fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.Seed, p.Completed, p.Failed, p.FaultHits, p.Recoveries, p.Reissues, p.Offlined, ro, p.Verified)
	}
	return out
}

// RenderChaos formats the soak results for humans.
func RenderChaos(points []ChaosPoint) string {
	header := fmt.Sprintf("%-10s %9s %7s %7s %10s %9s %9s %9s %9s",
		"seed", "completed", "failed", "faults", "recoveries", "reissues", "offlined", "readonly", "verified")
	var rows []string
	for _, p := range points {
		ro := "no"
		if p.ReadOnly {
			ro = "yes"
		}
		rows = append(rows, fmt.Sprintf("%-10d %9d %7d %7d %10d %9d %9d %9s %9d",
			p.Seed, p.Completed, p.Failed, p.FaultHits, p.Recoveries, p.Reissues, p.Offlined, ro, p.Verified))
	}
	return table("Chaos soak: seeded fault injection, all ops drained, unfaulted chips verified\n"+header, rows)
}
