package hic

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// tenantRig wires a fakeDrive behind a one-queue-per-tenant frontend.
func tenantRig(t *testing.T, queues int, rec *Recorder) (*sim.Kernel, *fakeDrive, *Frontend) {
	t.Helper()
	k := sim.NewKernel()
	d := &fakeDrive{k: k, latency: sim.Microsecond}
	qcs := make([]QueueConfig, queues)
	for i := range qcs {
		qcs[i] = QueueConfig{Depth: 8}
	}
	f, err := NewFrontend(k, d, FrontendConfig{Queues: qcs, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	return k, d, f
}

func TestTenantSpecValidate(t *testing.T) {
	good := TenantSpec{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8}
	if err := good.Validate(1); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []TenantSpec{
		{QueueDepth: 1, NumOps: 1, SlicePages: 8},                                           // no name
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, Queue: 2},                      // queue out of range
		{Name: "t", QueueDepth: 0, NumOps: 1, SlicePages: 8},                                // zero depth
		{Name: "t", QueueDepth: 1, NumOps: 0, SlicePages: 8},                                // zero ops
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 0},                                // empty slice
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, Mix: Mix{ReadPct: 50}},         // mix sum != 100
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, Pattern: Zipfian, ZipfS: 0.5},  // s <= 1
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, ZipfHot: 9},                    // hot > slice
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, BurstOff: sim.Microsecond},     // off without on
		{Name: "t", QueueDepth: 1, NumOps: 1, SlicePages: 8, BurstOn: -1 * sim.Microsecond}, // negative burst
	}
	for i, spec := range bad {
		if err := spec.Validate(2); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

func TestTenantsCompleteAndStayInSlice(t *testing.T) {
	k, d, f := tenantRig(t, 2, nil)
	results, err := RunTenants(k, f, []TenantSpec{
		{Name: "a", Queue: 0, QueueDepth: 4, NumOps: 30, SliceStart: 0, SlicePages: 16, Seed: 1},
		{Name: "b", Queue: 1, QueueDepth: 4, NumOps: 30, Pattern: Sequential, SliceStart: 16, SlicePages: 16, Seed: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	for _, res := range results {
		if res.Done() != 30 || res.Failed != 0 {
			t.Fatalf("%s: %+v", res.Name, *res)
		}
		if res.Reads != 30 {
			t.Errorf("%s: reads = %d, want 30 (zero Mix is pure reads)", res.Name, res.Reads)
		}
	}
	if !f.Drained() {
		t.Error("frontend not drained")
	}
	// Every submitted LPN falls in one of the two disjoint slices.
	for _, lpn := range d.seen {
		if lpn < 0 || lpn >= 32 {
			t.Fatalf("LPN %d outside every slice", lpn)
		}
	}
}

// TestTenantZipfian pins the hot-set contract: every address lands in
// [SliceStart, SliceStart+ZipfHot), and rank 0 — the slice's first page
// — is drawn most often.
func TestTenantZipfian(t *testing.T) {
	k, d, f := tenantRig(t, 1, nil)
	if _, err := RunTenants(k, f, []TenantSpec{{
		Name: "zipf", QueueDepth: 4, NumOps: 400,
		Pattern: Zipfian, ZipfHot: 16,
		SliceStart: 100, SlicePages: 64, Seed: 7,
	}}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	freq := map[int]int{}
	for _, lpn := range d.seen {
		if lpn < 100 || lpn >= 116 {
			t.Fatalf("LPN %d outside hot set [100,116)", lpn)
		}
		freq[lpn]++
	}
	for lpn, n := range freq {
		if lpn != 100 && n > freq[100] {
			t.Fatalf("rank-0 page drawn %d times but LPN %d drawn %d", freq[100], lpn, n)
		}
	}
	if freq[100] < 400/4 {
		t.Errorf("hot page drawn only %d of 400; zipf skew looks wrong", freq[100])
	}
}

// TestTenantMix pins the mix draw: shares roughly follow the spec and
// the issued counts always sum to NumOps.
func TestTenantMix(t *testing.T) {
	k, _, f := tenantRig(t, 1, nil)
	results, err := RunTenants(k, f, []TenantSpec{{
		Name: "mix", QueueDepth: 4, NumOps: 300,
		Mix:        Mix{ReadPct: 50, WritePct: 30, TrimPct: 20},
		SlicePages: 64, Seed: 5,
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	res := results[0]
	if res.Reads+res.Writes+res.Trims != 300 {
		t.Fatalf("mix counts %d+%d+%d != 300", res.Reads, res.Writes, res.Trims)
	}
	if res.Reads == 0 || res.Writes == 0 || res.Trims == 0 {
		t.Fatalf("mix counts r%d/w%d/t%d: every share must appear", res.Reads, res.Writes, res.Trims)
	}
	if res.Reads < res.Writes || res.Writes < res.Trims {
		t.Errorf("mix counts r%d/w%d/t%d out of proportion", res.Reads, res.Writes, res.Trims)
	}
}

// TestTenantBurst pins on/off modulation: every enqueue instant falls in
// an ON window of the tenant's phase clock.
func TestTenantBurst(t *testing.T) {
	rec := &Recorder{}
	k, _, f := tenantRig(t, 1, rec)
	on, off := 5*sim.Microsecond, 15*sim.Microsecond
	if _, err := RunTenants(k, f, []TenantSpec{{
		Name: "burst", QueueDepth: 2, NumOps: 60,
		BurstOn: on, BurstOff: off,
		SlicePages: 64, Seed: 9,
	}}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if rec.Len() != 60 {
		t.Fatalf("recorded %d enqueues, want 60", rec.Len())
	}
	period := int64(on + off)
	offPhase := 0
	for _, e := range rec.Entries() {
		if e.AtPs%period >= int64(on) {
			offPhase++
		}
	}
	if offPhase > 0 {
		t.Errorf("%d of 60 enqueues landed in the OFF phase", offPhase)
	}
	// The run must actually span several periods — otherwise the phase
	// check is vacuous.
	last := rec.Entries()[rec.Len()-1].AtPs
	if last < 2*period {
		t.Errorf("run spanned %dps, want at least two %dps periods", last, period)
	}
}

// TestTenantSeedsReproduce pins the per-tenant RNG streams at the
// engine level: same seeds, same enqueue stream; different seed,
// different stream.
func TestTenantSeedsReproduce(t *testing.T) {
	record := func(seed int64) string {
		rec := &Recorder{}
		k, _, f := tenantRig(t, 1, rec)
		if _, err := RunTenants(k, f, []TenantSpec{{
			Name: "t", QueueDepth: 4, NumOps: 50,
			Pattern: Zipfian, ZipfHot: 16,
			Mix:        Mix{ReadPct: 60, WritePct: 40},
			SlicePages: 64, Seed: seed,
		}}, nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return fmt.Sprintf("%+v", rec.Entries())
	}
	if record(3) != record(3) {
		t.Error("same seed produced different streams")
	}
	if record(3) == record(4) {
		t.Error("different seeds produced identical streams")
	}
}

// TestTenantEmitsHostCmdEvents pins the obs contract: one KindHostCmd
// per completion carrying tenant, queue, kind, and latency.
func TestTenantEmitsHostCmdEvents(t *testing.T) {
	var events []obs.Event
	k, _, f := tenantRig(t, 2, nil)
	if _, err := RunTenants(k, f, []TenantSpec{{
		Name: "emitter", Queue: 1, QueueDepth: 2, NumOps: 10,
		SlicePages: 8, Seed: 1,
	}}, obs.Func(func(e obs.Event) { events = append(events, e) })); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(events) != 10 {
		t.Fatalf("emitted %d events, want 10", len(events))
	}
	for _, e := range events {
		if e.Kind != obs.KindHostCmd || e.Label != "emitter" || e.Depth != 1 {
			t.Fatalf("event = %+v", e)
		}
		if e.Chip != -1 || e.Err || e.Dur <= 0 {
			t.Fatalf("event = %+v", e)
		}
		if e.Cycles != int64(KindRead) {
			t.Fatalf("event kind tag = %d, want read", e.Cycles)
		}
	}
}
