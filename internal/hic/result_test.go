package hic

import (
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// faultyDrive completes commands after a fixed latency, failing every
// failEvery-th submission (1-indexed).
type faultyDrive struct {
	k         *sim.Kernel
	latency   sim.Duration
	failEvery int
	submitted int
}

var errUncorrectable = errors.New("uncorrectable")

func (d *faultyDrive) Submit(cmd Command) {
	d.submitted++
	var err error
	if d.failEvery > 0 && d.submitted%d.failEvery == 0 {
		err = errUncorrectable
	}
	d.k.After(d.latency, func() { cmd.Done(err) })
}

// TestResultSplitsFailures is the accounting-bugfix regression: Result
// once counted failed commands in Completed and folded their latencies
// into the distribution, inflating bandwidth and latency of faulting
// runs. Completed must count successes only, Failed the rest, Done()
// the terminations, and the latency samples successes only.
func TestResultSplitsFailures(t *testing.T) {
	k := sim.NewKernel()
	d := &faultyDrive{k: k, latency: sim.Microsecond, failEvery: 3}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindRead,
		NumOps: 9, QueueDepth: 1, LogicalPages: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 6 {
		t.Errorf("Completed = %d, want 6 (successes only)", res.Completed)
	}
	if res.Failed != 3 {
		t.Errorf("Failed = %d, want 3", res.Failed)
	}
	if res.Done() != 9 {
		t.Errorf("Done() = %d, want 9", res.Done())
	}
	if len(res.latencies) != 6 {
		t.Errorf("latency samples = %d, want 6 (failures excluded)", len(res.latencies))
	}
	// End advances on failures too: the run's extent covers every
	// termination, so a failure-ending run still has a span.
	if res.Elapsed() != 9*sim.Microsecond {
		t.Errorf("Elapsed = %v, want 9us", res.Elapsed())
	}
	// Bandwidth and IOPS rate successes over the full span.
	if got, want := res.IOPS(), 6/res.Elapsed().Seconds(); got != want {
		t.Errorf("IOPS = %v, want %v", got, want)
	}
}

// TestReplayTraceSplitsFailures covers the same regression on the
// recorded source.
func TestReplayTraceSplitsFailures(t *testing.T) {
	k := sim.NewKernel()
	d := &faultyDrive{k: k, latency: sim.Microsecond, failEvery: 2}
	f, err := NewFrontend(k, d, FrontendConfig{Queues: []QueueConfig{{Depth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(k, f, []obs.Event{
		enqueued(0, 0, KindRead, 0, ""), enqueued(0, 0, KindRead, 1, ""),
		enqueued(0, 0, KindRead, 2, ""), enqueued(0, 0, KindRead, 3, ""),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 2 || res.Failed != 2 || res.Done() != 4 {
		t.Errorf("completed=%d failed=%d done=%d, want 2/2/4", res.Completed, res.Failed, res.Done())
	}
	if len(res.latencies) != 2 {
		t.Errorf("latency samples = %d, want 2", len(res.latencies))
	}
}

// TestMixedRWZeroReadPercent is the MixedRW-bugfix regression:
// ReadPercent 0 once meant "pure workload Kind", so an all-write mixed
// workload was inexpressible. MixedRW marks the workload as mixed
// explicitly; with ReadPercent 0 it must issue only writes.
func TestMixedRWZeroReadPercent(t *testing.T) {
	k := sim.NewKernel()
	kinds := map[Kind]int{}
	d := &kindDrive{k: k, kinds: kinds}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindRead, MixedRW: true, ReadPercent: 0,
		NumOps: 20, QueueDepth: 2, LogicalPages: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 20 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if kinds[KindWrite] != 20 || kinds[KindRead] != 0 {
		t.Errorf("kinds = %v, want 20 writes and 0 reads", kinds)
	}
}

// TestLegacyReadPercentStillMixes pins fig12 compatibility: ReadPercent
// > 0 without MixedRW keeps mixing exactly as before.
func TestLegacyReadPercentStillMixes(t *testing.T) {
	k := sim.NewKernel()
	kinds := map[Kind]int{}
	d := &kindDrive{k: k, kinds: kinds}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindWrite, ReadPercent: 50,
		NumOps: 40, QueueDepth: 2, LogicalPages: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 40 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if kinds[KindRead] == 0 || kinds[KindWrite] == 0 {
		t.Errorf("kinds = %v, want both reads and writes", kinds)
	}
	if kinds[KindRead]+kinds[KindWrite] != 40 {
		t.Errorf("kinds = %v, want 40 total", kinds)
	}
}

// TestPureKindDrawsNoRNG pins the legacy path's RNG stream: an unmixed
// workload must not consume mix draws, so address sequences (and every
// figure built on them) stay byte-identical to pre-MixedRW builds.
func TestPureKindDrawsNoRNG(t *testing.T) {
	lpns := func(w Workload) []int {
		k := sim.NewKernel()
		d := &fakeDrive{k: k, latency: sim.Microsecond}
		if _, err := Run(k, d, w); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return d.seen
	}
	base := Workload{Pattern: Random, Kind: KindWrite, NumOps: 20, QueueDepth: 2, LogicalPages: 64, Seed: 9}
	mixed := base
	mixed.MixedRW = true
	mixed.ReadPercent = 0
	// The mixed run draws a kind per op from the same RNG, so its
	// address stream must diverge from the pure run's — proving the pure
	// path never touched those draws.
	a, b := lpns(base), lpns(mixed)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("mixed and pure runs drew identical address streams; pure path is consuming mix draws")
	}
}

// kindDrive counts submissions by command kind.
type kindDrive struct {
	k     *sim.Kernel
	kinds map[Kind]int
}

func (d *kindDrive) Submit(cmd Command) {
	d.kinds[cmd.Kind]++
	d.k.After(sim.Microsecond, func() { cmd.Done(nil) })
}

// neverDrive accepts commands and never completes them.
type neverDrive struct{}

func (neverDrive) Submit(Command) {}

// TestEmptyRunElapsed is the zero-completion-bugfix regression: a run
// in which nothing completed once reported End−Start < 0 when started
// at a nonzero virtual time, driving bandwidth/IOPS negative. Elapsed
// must be 0, and the rate helpers must return 0.
func TestEmptyRunElapsed(t *testing.T) {
	k := sim.NewKernel()
	var res *Result
	k.After(5*sim.Microsecond, func() {
		var err error
		res, err = Run(k, neverDrive{}, Workload{
			Pattern: Sequential, Kind: KindRead,
			NumOps: 4, QueueDepth: 2, LogicalPages: 8,
		})
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if res == nil {
		t.Fatal("run never started")
	}
	if res.Completed != 0 || res.Failed != 0 {
		t.Fatalf("result: %+v", res)
	}
	if got := res.Elapsed(); got != 0 {
		t.Errorf("Elapsed = %v, want 0 for a run with no completions", got)
	}
	if res.BandwidthMBps(4096) != 0 || res.IOPS() != 0 {
		t.Errorf("rates nonzero on empty run: %v MB/s, %v IOPS", res.BandwidthMBps(4096), res.IOPS())
	}
}
