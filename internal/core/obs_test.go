package core_test

import (
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
)

// newObsRig is newRig plus an attached metrics registry.
func newObsRig(t *testing.T, chips int, profile cpumodel.Profile, freqMHz int) (*rig, *obs.Metrics, *cpumodel.CPU) {
	t.Helper()
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chips; i++ {
		l, err := nand.NewLUN(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		ch.Attach(l)
	}
	mem := dram.New(1 << 20)
	cpu, err := cpumodel.New(k, freqMHz, profile)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: mem, CPU: cpu, Tracer: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	return &rig{k: k, ch: ch, mem: mem, ctrl: ctrl}, m, cpu
}

// TestMetricsCrossCheck is the acceptance criterion for the event
// stream: the software/hardware time split derived purely from events
// must reproduce the CPU model's and the channel's own counters
// exactly, and the event counters must agree with controller Stats.
func TestMetricsCrossCheck(t *testing.T) {
	r, m, cpu := newObsRig(t, 2, cpumodel.RTOS(), 1000)
	for i := 0; i < 2; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 64),
			Chip: i % 2,
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
			},
		})
	}
	r.k.Run()

	s := m.Snapshot()
	if s.SoftwareTime != cpu.Stats().BusyTime {
		t.Errorf("SoftwareTime %v != cpu BusyTime %v", s.SoftwareTime, cpu.Stats().BusyTime)
	}
	if s.SoftwareCycles != cpu.Stats().CyclesCharged {
		t.Errorf("SoftwareCycles %d != cpu CyclesCharged %d", s.SoftwareCycles, cpu.Stats().CyclesCharged)
	}
	if s.HardwareTime != r.ch.Stats().BusyTime {
		t.Errorf("HardwareTime %v != channel BusyTime %v", s.HardwareTime, r.ch.Stats().BusyTime)
	}
	st := r.ctrl.Stats()
	if s.OpsFinished != st.OpsCompleted {
		t.Errorf("OpsFinished %d != OpsCompleted %d", s.OpsFinished, st.OpsCompleted)
	}
	if s.TxnsExecuted != st.TxnsExecuted {
		t.Errorf("TxnsExecuted %d != stats %d", s.TxnsExecuted, st.TxnsExecuted)
	}
	if s.TxnsEnqueued != s.TxnsExecuted || s.TxnsPopped != s.TxnsExecuted {
		t.Errorf("txn pipeline leaked: enq=%d pop=%d exec=%d", s.TxnsEnqueued, s.TxnsPopped, s.TxnsExecuted)
	}
	if s.OpsAdmitted != 6 || s.OpsFinished != 6 {
		t.Errorf("ops: admitted=%d finished=%d", s.OpsAdmitted, s.OpsFinished)
	}
	if s.SoftwareShare() <= 0 || s.SoftwareShare() >= 1 {
		t.Errorf("SoftwareShare = %v", s.SoftwareShare())
	}
	// Per-chip roll-up covers both chips and sums to the totals.
	var chipTxns uint64
	var chipBusy sim.Duration
	for _, cm := range s.Chips {
		chipTxns += cm.TxnsExecuted
		chipBusy += cm.BusyTime
	}
	if chipTxns != s.TxnsExecuted || chipBusy != s.HardwareTime {
		t.Errorf("chip roll-up: txns %d/%d busy %v/%v", chipTxns, s.TxnsExecuted, chipBusy, s.HardwareTime)
	}
	// Every completed operation must reach the latency histogram.
	if s.OpLatency.Count != st.OpsCompleted {
		t.Errorf("OpLatency.Count %d != OpsCompleted %d", s.OpLatency.Count, st.OpsCompleted)
	}
}

// TestReadmissionChargesAdmitCycles pins the fix for the finishOp
// re-admission path: every admission pass — initial or re-run after a
// completion — must pay AdmitCycles, so the "admit" charge count in the
// event stream exceeds the op count whenever ops parked, and software
// time still reconciles with the CPU model exactly.
func TestReadmissionChargesAdmitCycles(t *testing.T) {
	r, m, cpu := newObsRig(t, 1, cpumodel.RTOS(), 1000)
	if err := r.ch.Chip(0).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// 4 ops on one chip: active + staged fill, ops 3 and 4 park and are
	// re-admitted by later finishOp passes.
	for i := 0; i < 4; i++ {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 64), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
			},
		})
	}
	r.k.Run()

	s := m.Snapshot()
	if s.AdmissionWaits == 0 {
		t.Fatal("scenario did not exercise parking")
	}
	admits := s.Charges["admit"]
	wantAdmits := 4 + s.AdmissionWaits // one per Start + one per re-admission pass
	if admits.Count != wantAdmits {
		t.Errorf("admit charges = %d, want %d (4 starts + %d re-admissions)",
			admits.Count, wantAdmits, s.AdmissionWaits)
	}
	profile := cpu.Profile()
	if admits.Cycles != int64(wantAdmits)*profile.AdmitCycles {
		t.Errorf("admit cycles = %d, want %d", admits.Cycles, int64(wantAdmits)*profile.AdmitCycles)
	}
	// The under-accounting bug showed up as SoftwareTime < cpu BusyTime;
	// with the fix the reconciliation is exact.
	if s.SoftwareTime != cpu.Stats().BusyTime {
		t.Errorf("SoftwareTime %v != cpu BusyTime %v", s.SoftwareTime, cpu.Stats().BusyTime)
	}
}

// TestGangOpNotStarved is the regression test for gang-op starvation:
// a parked multi-chip operation must not be leapfrogged indefinitely by
// later single-chip traffic on its chips — freed slots are reserved for
// it until it runs. "queued" starts the later traffic up front;
// "restarted" starts each single from a finishing one's Done, so a fresh
// operation's admission pass runs while the parked gang op's own
// re-admission pass is still queued.
func TestGangOpNotStarved(t *testing.T) {
	t.Run("queued", func(t *testing.T) { gangNotStarved(t, false) })
	t.Run("restarted", func(t *testing.T) { gangNotStarved(t, true) })
}

// gangNotStarved fills both chips' active and staged slots, starts a gang
// op on both chips, then singles up to 400. Every single started after
// the gang op must finish after it.
func gangNotStarved(t *testing.T, restart bool) {
	r := newRig(t, 2, cpumodel.RTOS(), 1000)
	for i := 0; i < 2; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	const singles = 400
	started := 0
	var order []int // singles by start number, in finish order; -1 is the gang op
	var single func(chip int)
	single = func(chip int) {
		seq := started
		started++
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, chip*1024, 64), Chip: chip,
			Done: func(err error) {
				if err != nil {
					t.Errorf("single %d: %v", seq, err)
				}
				order = append(order, seq)
				if restart && started < singles {
					single(chip)
				}
			},
		})
	}
	for i := 0; i < 4; i++ {
		single(i % 2)
	}
	gangSeq := started
	r.ctrl.Start(core.OpRequest{
		Func: ops.GangRead([]int{0, 1}, onfi.Addr{}, 2048, 64), Chip: 0, ExtraChips: []int{1},
		Done: func(err error) {
			if err != nil {
				t.Errorf("gang: %v", err)
			}
			order = append(order, -1)
		},
	})
	for !restart && started < singles {
		single(started % 2)
	}
	r.k.Run()

	if len(order) != singles+1 {
		t.Fatalf("%d of %d operations finished", len(order), singles+1)
	}
	gangAt := slices.Index(order, -1)
	for _, seq := range order[:gangAt] {
		if seq >= gangSeq {
			t.Fatalf("gang op starved: single %d, started after it, finished first; the gang op finished %d-th",
				seq, gangAt+1)
		}
	}
}

// TestCloseNeutralizesPendingCallbacks pins the Close fix: kernel
// callbacks still scheduled at Close time (transaction completions,
// CPU work, timers) must become no-ops instead of resuming aborted
// coroutines or mutating freed controller state.
func TestCloseNeutralizesPendingCallbacks(t *testing.T) {
	r := newRig(t, 2, cpumodel.RTOS(), 1000)
	for i := 0; i < 2; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 64), Chip: i % 2,
		})
	}
	// Advance far enough that transactions are in flight with completion
	// callbacks scheduled, then close mid-operation.
	r.k.RunFor(20 * sim.Microsecond)
	r.ctrl.Close()
	statsAtClose := r.ctrl.Stats()

	// Draining the kernel afterwards must neither panic nor touch stats.
	r.k.Run()
	if got := r.ctrl.Stats(); got != statsAtClose {
		t.Errorf("stats mutated after Close: %+v -> %+v", statsAtClose, got)
	}
	if r.ctrl.Pending() != 0 {
		t.Error("pending ops after Close")
	}
	// Close is idempotent and Start after Close is a documented no-op.
	r.ctrl.Close()
	if id := r.ctrl.Start(core.OpRequest{Func: ops.Reset(), Chip: 0}); id != 0 {
		t.Errorf("Start after Close returned id %d", id)
	}
	r.k.Run()
	if got := r.ctrl.Stats(); got != statsAtClose {
		t.Errorf("stats mutated by Start after Close: %+v", got)
	}
}

// TestPollResubmitClassification pins the ctx.go fix: only a capture
// submit repeating the *same* command counts as a polling resubmission.
// Distinct back-to-back capture phases (READ ID then READ STATUS) and
// polls separated by a Sleep are fresh submissions.
func TestPollResubmitClassification(t *testing.T) {
	r, m, _ := newObsRig(t, 1, cpumodel.RTOS(), 1000)
	capture := func(ctx *core.Ctx, cmd onfi.Cmd) {
		ctx.Cmd(cmd)
		ctx.ReadCapture(1)
		ctx.Submit()
	}
	r.ctrl.Start(core.OpRequest{
		Func: func(ctx *core.Ctx) error {
			capture(ctx, onfi.CmdReadStatus) // first poll: not a resubmit
			capture(ctx, onfi.CmdReadStatus) // same command again: resubmit
			capture(ctx, onfi.CmdReadID)     // distinct capture phase: NOT a resubmit
			capture(ctx, onfi.CmdReadStatus) // command changed back: NOT a resubmit
			ctx.Sleep(sim.Microsecond)
			capture(ctx, onfi.CmdReadStatus) // sleep broke the loop: NOT a resubmit
			capture(ctx, onfi.CmdReadStatus) // resubmit again
			return nil
		},
		Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
		},
	})
	r.k.Run()

	s := m.Snapshot()
	if s.PollResubmits != 2 {
		t.Errorf("PollResubmits = %d, want 2 (old classifier counted every capture-after-capture: 4)",
			s.PollResubmits)
	}
	if got := s.Charges["poll-resubmit"].Count; got != 2 {
		t.Errorf("poll-resubmit charges = %d, want 2", got)
	}
}

// TestStatsSemantics documents that OpsCompleted counts every
// terminated operation including failures, with OpsSucceeded as the
// derived error-free count.
func TestStatsSemantics(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 0, Page: 0}}
	// First program succeeds; overwriting the same page fails.
	r.ctrl.Start(core.OpRequest{
		Func: ops.ProgramPage(addr, 0, 16), Chip: 0,
		Done: func(error) {
			r.ctrl.Start(core.OpRequest{Func: ops.ProgramPage(addr, 0, 16), Chip: 0})
		},
	})
	r.k.Run()
	st := r.ctrl.Stats()
	if st.OpsCompleted != 2 {
		t.Errorf("OpsCompleted = %d, want 2 (failed ops count as completed)", st.OpsCompleted)
	}
	if st.OpsFailed != 1 {
		t.Errorf("OpsFailed = %d, want 1", st.OpsFailed)
	}
	if st.OpsSucceeded() != 1 {
		t.Errorf("OpsSucceeded() = %d, want 1", st.OpsSucceeded())
	}
}

// TestFailedOpEmitsErrEvent verifies the op-finished event carries the
// failure flag so per-chip failure counters work.
func TestFailedOpEmitsErrEvent(t *testing.T) {
	r, m, _ := newObsRig(t, 1, cpumodel.RTOS(), 1000)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 0, Page: 0}}
	r.ctrl.Start(core.OpRequest{
		Func: ops.ProgramPage(addr, 0, 16), Chip: 0,
		Done: func(error) {
			r.ctrl.Start(core.OpRequest{Func: ops.ProgramPage(addr, 0, 16), Chip: 0})
		},
	})
	r.k.Run()
	s := m.Snapshot()
	if s.OpsFinished != 2 || s.OpsFailed != 1 {
		t.Errorf("events: finished=%d failed=%d", s.OpsFinished, s.OpsFailed)
	}
	chip := s.Chips[obs.ChipKey{Chip: 0}]
	if chip.OpsFinished != 2 || chip.OpsFailed != 1 {
		t.Errorf("chip events: %+v", chip)
	}
}
