package hic

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The tests here pin what the rest of the repository takes from the
// one closed-loop path without saying so: the exact command streams
// (every golden and ledger row replays them), the kernel events the
// host side adds (none), and the allocations it makes per command
// (none).

// holdDrive is the generator alone: it holds every command until the
// test completes one, so a closed loop stays at its queue depth with
// no kernel events and no device-side allocation.
type holdDrive struct {
	held []Command
	next int
}

func (d *holdDrive) Submit(c Command) { d.held = append(d.held, c) }

// completeOne finishes one held command, rotating through them so every
// slot takes its turn; the completion submits that slot's next command.
func (d *holdDrive) completeOne() {
	n := len(d.held) - 1
	i := d.next % len(d.held)
	d.next++
	c := d.held[i]
	d.held[i] = d.held[n]
	d.held = d.held[:n]
	c.Done(nil)
}

// stream renders the commands sub sees as "r5 w3 t9 …" and fails on any
// that carries a tenant.
func stream(t *testing.T, w Workload) string {
	t.Helper()
	k := sim.NewKernel()
	var sb strings.Builder
	d := submitterFunc(func(cmd Command) {
		if cmd.Tenant != "" {
			t.Errorf("Run issued a command for tenant %q, want the anonymous source", cmd.Tenant)
		}
		fmt.Fprintf(&sb, "%c%d ", cmd.Kind.String()[0], cmd.LPN)
		k.After(sim.Microsecond, func() { cmd.Done(nil) })
	})
	if _, err := Run(k, d, w); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return strings.TrimSpace(sb.String())
}

// TestRunStreamsMatchParent holds Run to the streams its private loop
// produced before it was re-expressed as a source over a Frontend
// (captured at commit 1d0515c; never regenerate them — a diff here moves
// every figure golden and four ledger rows). Between them the cases pin
// draw rules 1 and 2: pure read and pure write share one address
// stream, and every mixed stream — at 50, 100 and 0 % reads alike —
// shares the other, shifted by one kind draw per command.
func TestRunStreamsMatchParent(t *testing.T) {
	random := Workload{Pattern: Random, NumOps: 16, QueueDepth: 4, LogicalPages: 64, Seed: 42}
	with := func(edit func(*Workload)) Workload {
		w := random
		edit(&w)
		return w
	}
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		{"seq", Workload{Pattern: Sequential, Kind: KindRead, NumOps: 12, QueueDepth: 3, LogicalPages: 5},
			"r0 r1 r2 r3 r4 r0 r1 r2 r3 r4 r0 r1"},
		{"random", with(func(w *Workload) { w.Kind = KindRead }),
			"r49 r11 r4 r62 r31 r33 r37 r8 r48 r19 r57 r47 r39 r28 r12 r45"},
		{"pure-write", with(func(w *Workload) { w.Kind = KindWrite }),
			"w49 w11 w4 w62 w31 w33 w37 w8 w48 w19 w57 w47 w39 w28 w12 w45"},
		{"readpct50", with(func(w *Workload) { w.Kind, w.ReadPercent = KindWrite, 50 }),
			"r11 w62 r33 w8 r19 r47 r28 w45 w57 r16 w22 r27 r45 r39 r39 w14"},
		{"readpct100", with(func(w *Workload) { w.Kind, w.ReadPercent = KindWrite, 100 }),
			"r11 r62 r33 r8 r19 r47 r28 r45 r57 r16 r22 r27 r45 r39 r39 r14"},
		{"mixedrw0", with(func(w *Workload) { w.Kind, w.MixedRW = KindRead, true }),
			"w11 w62 w33 w8 w19 w47 w28 w45 w57 w16 w22 w27 w45 w39 w39 w14"},
	}
	for _, c := range cases {
		if got := stream(t, c.w); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestTenantDrawRule pins draw rule 3 against rule 1: an all-read tenant
// draws nothing for the kind, so it walks the same addresses as a pure
// Run with its seed; an all-write tenant does draw, so it does not.
func TestTenantDrawRule(t *testing.T) {
	lpns := func(mix Mix) string {
		k, d, f := tenantRig(t, 1, nil)
		if _, err := RunTenants(k, f, []TenantSpec{{
			Name: "t", QueueDepth: 4, NumOps: 16, Pattern: Random, Mix: mix, SlicePages: 64, Seed: 42,
		}}, nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return fmt.Sprint(d.seen)
	}
	const pureRun = "[49 11 4 62 31 33 37 8 48 19 57 47 39 28 12 45]"
	const drawing = "[11 62 33 8 19 47 28 45 57 16 22 27 45 39 39 14]"
	if got := lpns(Mix{}); got != pureRun {
		t.Errorf("all-read tenant addresses %s, want the undrawn stream %s", got, pureRun)
	}
	if got := lpns(Mix{WritePct: 100}); got != drawing {
		t.Errorf("all-write tenant addresses %s, want the kind-drawing stream %s", got, drawing)
	}
}

// TestRunAddsNoKernelEvents is the unit-level pin of the ledger's
// events_per_hostop: on a device that completes each command with
// exactly one scheduled event, a whole Run executes exactly NumOps
// events — source, frontend and completion all run inside them.
func TestRunAddsNoKernelEvents(t *testing.T) {
	for _, depth := range []int{1, 4, 64} {
		k := sim.NewKernel()
		d := &fakeDrive{k: k, latency: sim.Microsecond}
		res, err := Run(k, d, Workload{
			Pattern: Random, Kind: KindRead, ReadPercent: 30,
			NumOps: 200, QueueDepth: depth, LogicalPages: 64, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if res.Done() != 200 {
			t.Fatalf("QD %d: %d of 200 commands terminated", depth, res.Done())
		}
		if got := k.Executed(); got != 200 {
			t.Errorf("QD %d: %d kernel events for 200 commands, want exactly 200", depth, got)
		}
		if want := min(depth, 200); d.maxInFlight != want {
			t.Errorf("QD %d: device saw %d in flight, want %d", depth, d.maxInFlight, want)
		}
	}
}

// closedLoops starts each closed-loop starter against a holdDrive with
// more than ops commands to issue.
var closedLoops = []struct {
	name  string
	start func(k *sim.Kernel, d *holdDrive, pattern Pattern, ops int) error
}{
	{"Run", func(k *sim.Kernel, d *holdDrive, pattern Pattern, ops int) error {
		_, err := Run(k, d, Workload{
			Pattern: pattern, Kind: KindRead, NumOps: ops, QueueDepth: 16, LogicalPages: 1 << 16, Seed: 1,
		})
		return err
	}},
	{"RunTenants", func(k *sim.Kernel, d *holdDrive, pattern Pattern, ops int) error {
		f, err := NewFrontend(k, d, FrontendConfig{Queues: []QueueConfig{{Depth: 8}, {Depth: 8}}})
		if err != nil {
			return err
		}
		_, err = RunTenants(k, f, []TenantSpec{
			{Name: "a", Queue: 0, QueueDepth: 8, NumOps: ops / 2, Pattern: pattern, SlicePages: 1 << 15, Seed: 1},
			{Name: "b", Queue: 1, QueueDepth: 8, NumOps: ops - ops/2, Pattern: pattern,
				Mix: Mix{ReadPct: 70, WritePct: 20, TrimPct: 10}, SliceStart: 1 << 15, SlicePages: 1 << 15, Seed: 2},
		}, obs.Func(func(obs.Event) {}))
		return err
	}},
}

// TestAllocGateClosedLoop holds the one path to its allocation budget:
// once a loop is running, a command's completion, booking, host-cmd
// event, next issue, enqueue and dispatch allocate nothing.
func TestAllocGateClosedLoop(t *testing.T) {
	for _, loop := range closedLoops {
		k, d := sim.NewKernel(), &holdDrive{}
		if err := loop.start(k, d, Random, 4000); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ { // warm: every slot and pooled callback in use
			d.completeOne()
		}
		if got := testing.AllocsPerRun(2000, d.completeOne); got != 0 {
			t.Errorf("%s allocates %v times per command in steady state, want 0", loop.name, got)
		}
	}
}

// BenchmarkClosedLoop times the generator and frontend alone (null
// device, 16 outstanding): ns/op is host time per command.
func BenchmarkClosedLoop(b *testing.B) {
	for _, loop := range closedLoops {
		for _, pattern := range []Pattern{Sequential, Random} {
			b.Run(loop.name+"/"+pattern.String(), func(b *testing.B) {
				b.ReportAllocs()
				k, d := sim.NewKernel(), &holdDrive{}
				if err := loop.start(k, d, pattern, b.N+16); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.completeOne()
				}
			})
		}
	}
}
