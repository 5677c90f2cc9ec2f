package hic

import (
	"testing"

	"repro/internal/sim"
)

// fakeDrive completes every command after a fixed virtual latency.
type fakeDrive struct {
	k           *sim.Kernel
	latency     sim.Duration
	seen        []int
	inFlight    int
	maxInFlight int
}

func (d *fakeDrive) Submit(cmd Command) {
	d.seen = append(d.seen, cmd.LPN)
	d.inFlight++
	if d.inFlight > d.maxInFlight {
		d.maxInFlight = d.inFlight
	}
	d.k.After(d.latency, func() {
		d.inFlight--
		cmd.Done(nil)
	})
}

func TestWorkloadValidate(t *testing.T) {
	good := Workload{NumOps: 1, QueueDepth: 1, LogicalPages: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good workload rejected: %v", err)
	}
	bad := []Workload{
		{NumOps: 0, QueueDepth: 1, LogicalPages: 1},
		{NumOps: 1, QueueDepth: 0, LogicalPages: 1},
		{NumOps: 1, QueueDepth: 1, LogicalPages: 0},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d accepted", i)
		}
	}
	if _, err := Run(sim.NewKernel(), &fakeDrive{}, bad[0]); err == nil {
		t.Error("Run accepted invalid workload")
	}
}

func TestSequentialPattern(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: sim.Microsecond}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindRead,
		NumOps: 10, QueueDepth: 2, LogicalPages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 10 || res.Failed != 0 {
		t.Fatalf("result: %+v", res)
	}
	// Sequential wraps at LogicalPages.
	want := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	for i, lpn := range d.seen {
		if lpn != want[i] {
			t.Fatalf("sequence: %v", d.seen)
		}
	}
}

func TestRandomPatternInRangeAndSeeded(t *testing.T) {
	run := func() []int {
		k := sim.NewKernel()
		d := &fakeDrive{k: k, latency: sim.Microsecond}
		if _, err := Run(k, d, Workload{
			Pattern: Random, Kind: KindRead,
			NumOps: 50, QueueDepth: 4, LogicalPages: 16, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return d.seen
	}
	a, b := run(), run()
	for i := range a {
		if a[i] < 0 || a[i] >= 16 {
			t.Fatalf("LPN %d out of range", a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestQueueDepthRespected(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: 10 * sim.Microsecond}
	if _, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindWrite,
		NumOps: 20, QueueDepth: 3, LogicalPages: 100,
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if d.maxInFlight != 3 {
		t.Errorf("max in flight = %d, want 3", d.maxInFlight)
	}
}

func TestQueueDepthLargerThanOps(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: sim.Microsecond}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindRead,
		NumOps: 2, QueueDepth: 8, LogicalPages: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 2 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestMetrics(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: 100 * sim.Microsecond}
	res, err := Run(k, d, Workload{
		Pattern: Sequential, Kind: KindRead,
		NumOps: 10, QueueDepth: 1, LogicalPages: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Elapsed() != 1000*sim.Microsecond {
		t.Errorf("elapsed = %v", res.Elapsed())
	}
	// 10 pages of 16384B in 1ms = 163.84 MB/s.
	bw := res.BandwidthMBps(16384)
	if bw < 163 || bw > 165 {
		t.Errorf("bandwidth = %v MB/s", bw)
	}
	if iops := res.IOPS(); iops < 9999 || iops > 10001 {
		t.Errorf("IOPS = %v", iops)
	}
	if res.MeanLatency() != 100*sim.Microsecond {
		t.Errorf("mean latency = %v", res.MeanLatency())
	}
	if res.LatencyPercentile(50) != 100*sim.Microsecond || res.LatencyPercentile(100) != 100*sim.Microsecond {
		t.Error("percentiles wrong")
	}
}

func TestLatencyPercentileNearestRank(t *testing.T) {
	var r Result
	for i := 10; i >= 1; i-- {
		r.latencies = append(r.latencies, sim.Duration(i))
	}
	// Nearest rank ⌈p/100·n⌉: the p99 of 10 samples is the maximum, not
	// the p90 the old truncating rank computed.
	if got := r.LatencyPercentile(99); got != 10 {
		t.Errorf("p99 of 10 samples = %d, want 10", got)
	}
	if got := r.LatencyPercentile(50); got != 5 {
		t.Errorf("p50 of 10 samples = %d, want 5", got)
	}
}

func TestEmptyResultMetrics(t *testing.T) {
	var r Result
	if r.BandwidthMBps(16384) != 0 || r.IOPS() != 0 || r.MeanLatency() != 0 || r.LatencyPercentile(99) != 0 {
		t.Error("empty result should report zeros")
	}
}

func TestKindAndPatternStrings(t *testing.T) {
	if KindRead.String() != "read" || KindWrite.String() != "write" {
		t.Error("kind strings")
	}
	if Sequential.String() != "sequential" || Random.String() != "random" {
		t.Error("pattern strings")
	}
}

func TestMixedWorkload(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: sim.Microsecond}
	kinds := map[Kind]int{}
	countDrive := submitterFunc(func(cmd Command) {
		kinds[cmd.Kind]++
		d.Submit(cmd)
	})
	res, err := Run(k, countDrive, Workload{
		Pattern: Random, Kind: KindWrite,
		NumOps: 400, QueueDepth: 4, LogicalPages: 64,
		ReadPercent: 70, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 400 {
		t.Fatalf("completed %d", res.Completed)
	}
	reads := kinds[KindRead]
	if reads < 230 || reads > 330 {
		t.Errorf("70%% mix produced %d reads of 400", reads)
	}
	if kinds[KindWrite] == 0 {
		t.Error("no writes in a 70/30 mix")
	}
}

func TestMixedWorkloadValidation(t *testing.T) {
	w := Workload{NumOps: 1, QueueDepth: 1, LogicalPages: 1, ReadPercent: 101}
	if err := w.Validate(); err == nil {
		t.Error("ReadPercent 101 accepted")
	}
}

// submitterFunc adapts a function to the Submitter interface.
type submitterFunc func(Command)

func (f submitterFunc) Submit(c Command) { f(c) }

// TestReplayTrace pins the recorded source's open loop: every command is
// enqueued at its recorded instant whatever is still in flight.
func TestReplayTrace(t *testing.T) {
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: 10 * sim.Microsecond}
	rec := &Recorder{}
	f, err := NewFrontend(k, d, FrontendConfig{Queues: []QueueConfig{{Depth: 4}}, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	us := int64(sim.Microsecond)
	entries := []RecordEntry{
		{AtPs: 0, Op: "read", LPN: 1},
		{AtPs: 5 * us, Op: "read", LPN: 2},
		{AtPs: 100 * us, Op: "write", LPN: 3},
	}
	res, err := Replay(k, f, entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Completed != 3 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Reads != 2 || res.Writes != 1 || res.Trims != 0 {
		t.Errorf("issued mix r%d/w%d/t%d, want 2/1/0", res.Reads, res.Writes, res.Trims)
	}
	// Open-loop: the second command was submitted at t=5us even though
	// the first was still in flight (two overlapped).
	if d.maxInFlight != 2 {
		t.Errorf("maxInFlight = %d, want 2", d.maxInFlight)
	}
	for i, want := range entries {
		if got := rec.Entries()[i]; got != want {
			t.Errorf("enqueue %d = %+v, want %+v", i, got, want)
		}
	}
	// Last completion at 110us.
	if res.End != sim.Time(110*sim.Microsecond) {
		t.Errorf("end = %v", res.End)
	}
	if _, err := Replay(k, f, nil, nil); err == nil {
		t.Error("empty trace accepted")
	}
}
