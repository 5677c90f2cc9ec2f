package hic

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// manualDrive holds every submitted command until the test completes it
// explicitly, so dispatch order and in-flight windows are observable.
type manualDrive struct {
	lpns    []int
	pending []func(error)
}

func (d *manualDrive) Submit(cmd Command) {
	d.lpns = append(d.lpns, cmd.LPN)
	d.pending = append(d.pending, cmd.Done)
}

// completeNext completes the oldest uncompleted command.
func (d *manualDrive) completeNext(err error) {
	done := d.pending[0]
	d.pending = d.pending[1:]
	done(err)
}

func newTestFrontend(t *testing.T, d Submitter, cfg FrontendConfig) *Frontend {
	t.Helper()
	f, err := NewFrontend(sim.NewKernel(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrontendValidation(t *testing.T) {
	k := sim.NewKernel()
	d := &manualDrive{}
	if _, err := NewFrontend(nil, d, FrontendConfig{Queues: []QueueConfig{{Depth: 1}}}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewFrontend(k, nil, FrontendConfig{Queues: []QueueConfig{{Depth: 1}}}); err == nil {
		t.Error("nil submitter accepted")
	}
	if _, err := NewFrontend(k, d, FrontendConfig{}); err == nil {
		t.Error("zero queues accepted")
	}
	if _, err := NewFrontend(k, d, FrontendConfig{Queues: []QueueConfig{{Depth: 0}}}); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestFrontendEnqueuePanicsOnBadQueue(t *testing.T) {
	f := newTestFrontend(t, &manualDrive{}, FrontendConfig{Queues: []QueueConfig{{Depth: 1}}})
	defer func() {
		if recover() == nil {
			t.Error("enqueue to queue 7 of 1 did not panic")
		}
	}()
	f.Enqueue(7, Command{Kind: KindRead})
}

// TestFrontendRoundRobin pins RR order: one grant per eligible queue per
// turn, starting at queue 0, rotating past empty queues.
func TestFrontendRoundRobin(t *testing.T) {
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{
		Queues:      []QueueConfig{{Depth: 4}, {Depth: 4}, {Depth: 4}},
		MaxInFlight: 1,
	})
	// LPN encodes queue*100+seq so dispatch order is legible.
	f.Enqueue(0, Command{Kind: KindRead, LPN: 0})   // dispatches (cap 1)
	f.Enqueue(0, Command{Kind: KindRead, LPN: 1})   // pends
	f.Enqueue(1, Command{Kind: KindRead, LPN: 100}) // pends
	f.Enqueue(2, Command{Kind: KindRead, LPN: 200}) // pends
	for len(d.pending) > 0 {
		d.completeNext(nil)
	}
	want := []int{0, 100, 200, 1}
	if len(d.lpns) != len(want) {
		t.Fatalf("dispatched %v", d.lpns)
	}
	for i, lpn := range want {
		if d.lpns[i] != lpn {
			t.Fatalf("RR dispatch order %v, want %v", d.lpns, want)
		}
	}
	if !f.Drained() {
		t.Error("frontend not drained")
	}
}

// TestFrontendWeightedRoundRobin pins WRR bursts: the turn-holder keeps
// dispatching up to Weight consecutive commands before rotating.
func TestFrontendWeightedRoundRobin(t *testing.T) {
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{
		Queues:      []QueueConfig{{Depth: 4, Weight: 2}, {Depth: 4, Weight: 1}},
		Arbitration: WeightedRoundRobin,
		MaxInFlight: 1,
	})
	f.Enqueue(0, Command{Kind: KindRead, LPN: 0})
	f.Enqueue(0, Command{Kind: KindRead, LPN: 1})
	f.Enqueue(0, Command{Kind: KindRead, LPN: 2})
	f.Enqueue(1, Command{Kind: KindRead, LPN: 100})
	f.Enqueue(1, Command{Kind: KindRead, LPN: 101})
	for len(d.pending) > 0 {
		d.completeNext(nil)
	}
	want := []int{0, 1, 100, 2, 101}
	for i, lpn := range want {
		if d.lpns[i] != lpn {
			t.Fatalf("WRR dispatch order %v, want %v", d.lpns, want)
		}
	}
}

// TestFrontendQueueDepth pins the per-queue in-flight window.
func TestFrontendQueueDepth(t *testing.T) {
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{Queues: []QueueConfig{{Depth: 2}}})
	for i := 0; i < 5; i++ {
		f.Enqueue(0, Command{Kind: KindRead, LPN: i})
	}
	if f.InFlight() != 2 || f.Pending() != 3 {
		t.Fatalf("in-flight=%d pending=%d, want 2/3", f.InFlight(), f.Pending())
	}
	d.completeNext(nil)
	if f.InFlight() != 2 || f.Pending() != 2 {
		t.Fatalf("after one completion: in-flight=%d pending=%d, want 2/2", f.InFlight(), f.Pending())
	}
}

// TestFrontendMaxInFlight pins the device-wide cap across queues.
func TestFrontendMaxInFlight(t *testing.T) {
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{
		Queues:      []QueueConfig{{Depth: 4}, {Depth: 4}},
		MaxInFlight: 3,
	})
	for i := 0; i < 4; i++ {
		f.Enqueue(0, Command{Kind: KindRead, LPN: i})
		f.Enqueue(1, Command{Kind: KindRead, LPN: 100 + i})
	}
	if f.InFlight() != 3 {
		t.Fatalf("in-flight=%d, want cap 3", f.InFlight())
	}
	for len(d.pending) > 0 {
		if f.InFlight() > 3 {
			t.Fatalf("cap exceeded: %d", f.InFlight())
		}
		d.completeNext(nil)
	}
	if !f.Drained() {
		t.Error("frontend not drained")
	}
}

// TestFrontendStats pins per-queue success/failure accounting.
func TestFrontendStats(t *testing.T) {
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{Queues: []QueueConfig{{Depth: 4}}})
	var errs [3]error
	errs[1] = errors.New("uncorrectable")
	for i := range errs {
		f.Enqueue(0, Command{Kind: KindRead, LPN: i})
	}
	for i := range errs {
		d.completeNext(errs[i])
	}
	st := f.Stats(0)
	if st.Enqueued != 3 || st.Dispatched != 3 || st.Completed != 3 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFrontendRecorder pins enqueue capture: one host-enqueue event per
// command with its queue, tenant, kind and LPN, in order, at the enqueue
// instant.
func TestFrontendRecorder(t *testing.T) {
	rec := &obs.Buffer{}
	d := &manualDrive{}
	f := newTestFrontend(t, d, FrontendConfig{
		Queues: []QueueConfig{{Depth: 1}, {Depth: 1}},
		Record: rec,
	})
	f.Enqueue(0, Command{Kind: KindRead, LPN: 7, Tenant: "a"})
	f.Enqueue(1, Command{Kind: KindTrim, LPN: 9, Tenant: "b"})
	want := []obs.Event{enqueued(0, 0, KindRead, 7, "a"), enqueued(0, 1, KindTrim, 9, "b")}
	if got := rec.Events(); !slices.Equal(got, want) {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
}
