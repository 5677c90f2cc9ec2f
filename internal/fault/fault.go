// Package fault is the deterministic fault-injection harness for the
// BABOL rig: seedable campaign plans that perturb NAND array
// operations at the package boundary — stuck-busy LUNs, StatusFail
// storms on PROGRAM/ERASE, uncorrectable-ECC bursts keyed by row, and
// erratic tR jitter — so the controller's recovery paths (bounded
// polling, RESET recovery, chip offlining, read-only degradation) can
// be exercised and regression-tested.
//
// Faults surface only through what a real controller can observe:
// status bits, busy timing, and data contents. The plan itself is
// pure state driven by operation ordinals and row addresses, never by
// wall-clock time or global randomness, so a chaos run is exactly
// reproducible from its seed (see Randomized).
package fault

import (
	"sort"

	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
)

// StuckBusy wedges one chip: its AfterOps-th array operation (0-based,
// counting reads, programs, and erases together) never comes ready.
// If Recoverable, an ONFI RESET clears the condition and the chip
// resumes service; otherwise the chip stays busy through every RESET
// and the controller must offline it.
type StuckBusy struct {
	Chip        int
	AfterOps    int
	Recoverable bool
}

// FailStorm makes a run of PROGRAM/ERASE operations on one chip report
// StatusFail (the array is left unchanged). The storm covers the
// program/erase ordinals [FirstOp, FirstOp+Count); Count <= 0 makes it
// persistent — every program and erase from FirstOp on fails, which
// retires block after block until the chip's spares are exhausted.
type FailStorm struct {
	Chip    int
	FirstOp int
	Count   int
}

// ECCBurst corrupts reads of rows in [RowLow, RowHigh] on one chip
// beyond ECC's correction ability. Hits bounds how many reads corrupt
// before the burst clears; Hits <= 0 makes it persistent.
type ECCBurst struct {
	Chip    int
	RowLow  uint32
	RowHigh uint32
	Hits    int
}

// TRJitter stretches every EveryN-th read on one chip by Delay —
// erratic tR well past the nominal value, but still finite.
type TRJitter struct {
	Chip   int
	EveryN int
	Delay  sim.Duration
}

// Plan is one rig's fault campaign set. Campaigns address chips by the
// SSD's global chip index (channel*ways + way). The zero Plan injects
// nothing. Build a plan by hand for targeted regression tests or with
// Randomized for seeded chaos runs, then hand it to
// ssd.BuildConfig.Faults; the assembly binds one Injector per targeted
// LUN.
type Plan struct {
	Seed       int64
	StuckBusy  []StuckBusy
	FailStorms []FailStorm
	ECCBursts  []ECCBurst
	TRJitter   []TRJitter

	injectors map[int]*Injector
}

// Touched returns the sorted set of chips any campaign targets — the
// complement is the "surviving" set a soak test verifies data on.
func (p *Plan) Touched() []int {
	set := map[int]bool{}
	for _, c := range p.StuckBusy {
		set[c.Chip] = true
	}
	for _, c := range p.FailStorms {
		set[c.Chip] = true
	}
	for _, c := range p.ECCBursts {
		set[c.Chip] = true
	}
	for _, c := range p.TRJitter {
		set[c.Chip] = true
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Hits reports how many fault injections have fired across all chips.
func (p *Plan) Hits() uint64 {
	var n uint64
	for _, inj := range p.injectors {
		n += inj.hits
	}
	return n
}

// Injector builds (or returns, if already built) the per-LUN injector
// for one global chip index, or nil when no campaign targets it.
// Events for each fired fault go to tracer (which may be nil) tagged
// with localChip, matching the channel-local chip numbering the rest
// of the obs stream uses.
func (p *Plan) Injector(chip int, tracer obs.Tracer, localChip int) *Injector {
	if inj, ok := p.injectors[chip]; ok {
		return inj
	}
	inj := &Injector{tracer: tracer, chip: localChip}
	for _, c := range p.StuckBusy {
		if c.Chip == chip {
			stuck := c
			inj.stuck = &stuck
		}
	}
	for _, c := range p.FailStorms {
		if c.Chip == chip {
			inj.storms = append(inj.storms, c)
		}
	}
	for _, c := range p.ECCBursts {
		if c.Chip == chip {
			inj.bursts = append(inj.bursts, burstState{ECCBurst: c})
		}
	}
	for _, c := range p.TRJitter {
		if c.Chip == chip && c.EveryN > 0 {
			inj.jitter = append(inj.jitter, c)
		}
	}
	if inj.stuck == nil && len(inj.storms) == 0 && len(inj.bursts) == 0 && len(inj.jitter) == 0 {
		return nil
	}
	if p.injectors == nil {
		p.injectors = make(map[int]*Injector)
	}
	p.injectors[chip] = inj
	return inj
}

type burstState struct {
	ECCBurst
	used int
}

// Injector implements nand.FaultInjector for one LUN, consulting the
// plan's campaigns by operation ordinal and row address.
type Injector struct {
	tracer obs.Tracer
	chip   int

	ops   int // array-operation ordinal (reads + programs + erases)
	pe    int // program/erase ordinal
	reads int // read ordinal

	stuck       *StuckBusy
	stuckFired  bool
	stuckActive bool
	dead        bool
	storms      []FailStorm
	bursts      []burstState
	jitter      []TRJitter

	hits uint64
}

func (in *Injector) hit(now sim.Time, label string) {
	in.hits++
	if in.tracer != nil {
		in.tracer.Event(obs.Event{Time: now, Kind: obs.KindFault, Chip: int16(in.chip), Label: label})
	}
}

func (in *Injector) checkStuck(now sim.Time, fo *nand.FaultOutcome) {
	if in.stuck != nil && !in.stuckFired && in.ops > in.stuck.AfterOps {
		in.stuckFired = true
		in.stuckActive = true
		fo.Stuck = true
		in.hit(now, "stuck-busy")
	}
}

func (in *Injector) checkStorm(now sim.Time, fo *nand.FaultOutcome) {
	for _, s := range in.storms {
		if in.pe < s.FirstOp {
			continue
		}
		if s.Count > 0 && in.pe >= s.FirstOp+s.Count {
			continue
		}
		fo.Fail = true
		in.hit(now, "fail-storm")
		return
	}
}

// OnRead implements nand.FaultInjector.
func (in *Injector) OnRead(now sim.Time, row uint32) nand.FaultOutcome {
	var fo nand.FaultOutcome
	in.ops++
	in.reads++
	in.checkStuck(now, &fo)
	for i := range in.bursts {
		b := &in.bursts[i]
		if row < b.RowLow || row > b.RowHigh {
			continue
		}
		if b.Hits > 0 && b.used >= b.Hits {
			continue
		}
		b.used++
		fo.Corrupt = true
		in.hit(now, "ecc-burst")
		break
	}
	for _, j := range in.jitter {
		if in.reads%j.EveryN == 0 {
			fo.Delay += j.Delay
			in.hit(now, "tr-jitter")
		}
	}
	return fo
}

// OnProgram implements nand.FaultInjector.
func (in *Injector) OnProgram(now sim.Time, row uint32) nand.FaultOutcome {
	var fo nand.FaultOutcome
	in.ops++
	in.pe++
	in.checkStuck(now, &fo)
	in.checkStorm(now, &fo)
	return fo
}

// OnErase implements nand.FaultInjector.
func (in *Injector) OnErase(now sim.Time, block int) nand.FaultOutcome {
	var fo nand.FaultOutcome
	in.ops++
	in.pe++
	in.checkStuck(now, &fo)
	in.checkStorm(now, &fo)
	return fo
}

// OnReset implements nand.FaultInjector: a recoverable stuck condition
// clears; an unrecoverable one leaves the chip dead through this and
// every future RESET.
func (in *Injector) OnReset(now sim.Time) bool {
	if in.stuckActive {
		in.stuckActive = false
		if !in.stuck.Recoverable {
			in.dead = true
		}
	}
	return in.dead
}

// Hits reports how many faults this injector has fired.
func (in *Injector) Hits() uint64 { return in.hits }
