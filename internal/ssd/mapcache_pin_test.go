package ssd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
)

// mapCacheCounts tallies the drive's KindMapCache events by label.
type mapCacheCounts map[string]int

func (c mapCacheCounts) Event(e obs.Event) {
	if e.Kind == obs.KindMapCache {
		c[e.Label]++
	}
}

// wedgeReads wedges a LUN's next n array reads, each one cleared by the
// RESET that follows it. A fault.Plan's StuckBusy fires once per chip,
// so a map-page load that wedges on every one of its attempts takes
// this injector.
type wedgeReads struct{ n int }

func (w *wedgeReads) OnRead(sim.Time, uint32) nand.FaultOutcome {
	if w.n == 0 {
		return nand.FaultOutcome{}
	}
	w.n--
	return nand.FaultOutcome{Stuck: true}
}
func (w *wedgeReads) OnProgram(sim.Time, uint32) nand.FaultOutcome { return nand.FaultOutcome{} }
func (w *wedgeReads) OnErase(sim.Time, int) nand.FaultOutcome      { return nand.FaultOutcome{} }
func (w *wedgeReads) OnReset(sim.Time) bool                        { return false }

// pinRig is one scenario of TestMapCacheGatePin: a map-cache-starved
// rig, the fault plan armed on it, and a transcript of every command's
// completion.
type pinRig struct {
	rig    *Rig
	counts mapCacheCounts
	out    strings.Builder
}

func newPinRig(t *testing.T, plan *fault.Plan) *pinRig {
	p := &pinRig{counts: mapCacheCounts{}}
	cfg := mapCacheBuild(512)
	cfg.Faults = plan
	cfg.Tracer = p.counts
	p.rig = mustBuild(t, cfg)
	return p
}

// submit sends one command and, once it completes, logs its kind, LPN,
// virtual completion time and error, then runs then (if any).
func (p *pinRig) submit(kind hic.Kind, lpn int, then func()) {
	p.rig.SSD.Submit(hic.Command{Kind: kind, LPN: lpn, Done: func(err error) {
		fmt.Fprintf(&p.out, "%s lpn=%d t=%d err=%v\n", kind, lpn, int64(p.rig.Kernel.Now()), err)
		if then != nil {
			then()
		}
	}})
}

// finish drains the kernel, audits the drained rig and appends the
// drive's counters to the transcript.
func (p *pinRig) finish(t *testing.T) string {
	p.rig.Kernel.Run()
	auditDrained(t, p.rig)
	fmt.Fprintf(&p.out, "stats %+v\n", p.rig.SSD.Stats())
	labels := make([]string, 0, len(p.counts))
	for l := range p.counts {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	for _, l := range labels {
		fmt.Fprintf(&p.out, "map-cache %s=%d\n", l, p.counts[l])
	}
	return p.out.String()
}

// TestMapCacheGatePin pins what the drive's host path does with
// commands parked on translation-page loads and in-flight programs when
// faults strike: the read-only latch landing while a write and a trim
// wait on a map-page load, a trim parked behind a program released
// after the latch, map-page loads that are reissued after a RESET, that
// exhaust their reissues, that find their chip dead, and that find it
// already offline. Every command's completion instant and error, the
// drive's Stats and the map-cache event counts are pinned as they were
// before the host path's gates were merged; nothing here may move.
//
// On mapCacheBuild(512) an LPN's translation page is LPN/64, page mpn
// lives on chip mpn%2, and each chip's cache partition holds one page.
func TestMapCacheGatePin(t *testing.T) {
	scenarios := []struct {
		name string
		want string
		run  func(t *testing.T) string
	}{{
		// Both chips die on their first array operation, each a map-page
		// load. Chip 0's death offlines it; chip 1's latches read-only
		// while a write and a trim are parked on its load. Later misses
		// on chip 0's pages skip the flash read.
		name: "read-only-while-parked",
		want: `read lpn=0 t=88037400000 err=<nil>
write lpn=320 t=88038600000 err=ssd: drive is in read-only degraded mode
trim lpn=321 t=88038600000 err=ssd: drive is in read-only degraded mode
read lpn=128 t=88038600000 err=<nil>
trim lpn=130 t=88038600000 err=ssd: drive is in read-only degraded mode
write lpn=131 t=88038600000 err=ssd: drive is in read-only degraded mode
stats {HostReads:2 HostWrites:2 HostTrims:2 GCCycles:0 GCCopybacks:0 UrgentReads:0 ECCCorrections:0 ECCFailures:0 RecoveredOps:0 OfflinedChips:2 ReadOnly:true}
map-cache evict=1
map-cache miss=4
`,
		run: func(t *testing.T) string {
			p := newPinRig(t, &fault.Plan{StuckBusy: []fault.StuckBusy{
				{Chip: 0, AfterOps: 0}, {Chip: 1, AfterOps: 0},
			}})
			p.submit(hic.KindRead, 0, nil)
			p.submit(hic.KindWrite, 320, nil)
			p.submit(hic.KindTrim, 321, func() {
				p.submit(hic.KindRead, 128, nil)
				p.submit(hic.KindTrim, 130, nil)
				p.submit(hic.KindWrite, 131, nil)
			})
			return p.finish(t)
		},
	}, {
		// Chip 1 dies at its first operation. A write and a trim of
		// LPN 0 then park on one map-page load on chip 0: the write
		// programs, the trim parks behind its program, and the program
		// wedges chip 0 for good. Losing the last chip latches read-only,
		// the write cannot be placed again, and the parked trim is
		// released after the latch.
		name: "trim-behind-program-after-latch",
		want: `read lpn=64 t=48054510000 err=<nil>
write lpn=0 t=96142330000 err=ssd: drive is in read-only degraded mode
trim lpn=0 t=96142330000 err=ssd: drive is in read-only degraded mode
stats {HostReads:1 HostWrites:1 HostTrims:1 GCCycles:0 GCCopybacks:0 UrgentReads:0 ECCCorrections:0 ECCFailures:0 RecoveredOps:0 OfflinedChips:2 ReadOnly:true}
map-cache evict=1
map-cache miss=3
`,
		run: func(t *testing.T) string {
			p := newPinRig(t, &fault.Plan{StuckBusy: []fault.StuckBusy{
				{Chip: 1, AfterOps: 0}, {Chip: 0, AfterOps: 1},
			}})
			p.submit(hic.KindRead, 64, func() {
				p.submit(hic.KindWrite, 0, nil)
				p.submit(hic.KindTrim, 0, nil)
			})
			return p.finish(t)
		},
	}, {
		// Four commands coalesce on one map-page load that wedges chip 0
		// once; the RESET revives the chip, the load is reissued, and
		// the commands are released in arrival order. A last write hits
		// the page they loaded.
		name: "map-load-reissued",
		want: `trim lpn=3 t=24564040000 err=<nil>
read lpn=1 t=24599740000 err=<nil>
write lpn=2 t=24627140000 err=<nil>
read lpn=4 t=24655020000 err=<nil>
write lpn=5 t=24713115000 err=<nil>
stats {HostReads:2 HostWrites:2 HostTrims:1 GCCycles:0 GCCopybacks:0 UrgentReads:0 ECCCorrections:0 ECCFailures:0 RecoveredOps:1 OfflinedChips:0 ReadOnly:false}
map-cache hit=1
map-cache miss=4
`,
		run: func(t *testing.T) string {
			p := newPinRig(t, &fault.Plan{StuckBusy: []fault.StuckBusy{
				{Chip: 0, AfterOps: 0, Recoverable: true},
			}})
			if err := p.rig.SSD.Preload(8); err != nil {
				t.Fatal(err)
			}
			p.submit(hic.KindRead, 1, nil)
			p.submit(hic.KindWrite, 2, nil)
			p.submit(hic.KindTrim, 3, nil)
			p.submit(hic.KindRead, 4, func() {
				p.submit(hic.KindWrite, 5, nil)
			})
			return p.finish(t)
		},
	}, {
		// A map-page load wedges chip 0 on every attempt: after its last
		// reissue the chip goes offline and the parked reads run, one
		// against each chip. The next miss on a chip-0 page finds the
		// chip offline and skips the flash read, and a last miss evicts
		// the page the write dirtied.
		name: "map-load-retries-exhausted",
		want: `read lpn=6 t=73600380000 err=ssd: read of LPN 6: ssd: chip is offline
trim lpn=131 t=73600380000 err=<nil>
read lpn=132 t=73600380000 err=<nil>
read lpn=5 t=73634295000 err=<nil>
read lpn=7 t=73661060000 err=<nil>
write lpn=130 t=73715255000 err=<nil>
read lpn=0 t=73715255000 err=ssd: read of LPN 0: ssd: chip is offline
stats {HostReads:5 HostWrites:1 HostTrims:1 GCCycles:0 GCCopybacks:0 UrgentReads:0 ECCCorrections:0 ECCFailures:0 RecoveredOps:2 OfflinedChips:1 ReadOnly:false}
map-cache evict=2
map-cache flush=1
map-cache hit=3
map-cache miss=4
`,
		run: func(t *testing.T) string {
			p := newPinRig(t, nil)
			if err := p.rig.SSD.Preload(8); err != nil {
				t.Fatal(err)
			}
			p.rig.Channel.Chip(0).SetFaults(&wedgeReads{n: maxReadRetries})
			p.submit(hic.KindRead, 5, nil)
			p.submit(hic.KindRead, 6, func() {
				p.submit(hic.KindRead, 7, nil)
				p.submit(hic.KindWrite, 130, func() {
					p.submit(hic.KindRead, 0, nil)
				})
				p.submit(hic.KindTrim, 131, nil)
				p.submit(hic.KindRead, 132, nil)
			})
			return p.finish(t)
		},
	}}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run(t)
			if got != sc.want {
				t.Errorf("transcript moved.\ngot:\n%s\nwant:\n%s", got, sc.want)
			}
		})
	}
}
