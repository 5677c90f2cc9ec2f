package wave

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

func TestKindString(t *testing.T) {
	names := map[obs.Kind]string{
		obs.KindBusCmdAddr: "CMD/ADDR", obs.KindBusDataOut: "DATA-OUT", obs.KindBusDataIn: "DATA-IN",
		obs.KindBusWait: "WAIT", obs.KindDieBusy: "BUSY",
	}
	for k, want := range names {
		if got := kindName(k); got != want {
			t.Errorf("kindName(%v) = %q, want %q", k, got, want)
		}
	}
	for _, k := range []obs.Kind{obs.KindHWInstr, obs.KindTxnExecuted, obs.KindHostCmd} {
		if got := kindName(k); got != "" {
			t.Errorf("kindName(%v) = %q, want \"\" for a controller kind", k, got)
		}
	}
}

// interleave mixes controller events — µFSM instructions and firmware
// charges on an out-of-range chip — between the pin-level events of a
// trace, the way a shared tracer sees both streams.
func interleave(events []obs.Event) []obs.Event {
	var out []obs.Event
	for i, e := range events {
		out = append(out,
			obs.Event{Time: e.Start, Kind: obs.KindHWInstr, OpID: e.OpID, Chip: 7, Dur: 5, Label: "cmd-addr"},
			e,
			obs.Event{Time: e.End, Kind: obs.KindCPUCharge, OpID: uint64(i), Chip: 7, Dur: 9, Cycles: 9, Label: "submit"})
	}
	return out
}

func TestRender(t *testing.T) {
	events := []obs.Event{
		{Start: 0, End: sim.Time(290 * sim.Nanosecond), Kind: obs.KindBusCmdAddr, Chip: 0, Bytes: 7, Label: "READ.1 ADDR×5 READ.2"},
		{Start: sim.Time(290 * sim.Nanosecond), End: sim.Time(100290 * sim.Nanosecond), Kind: obs.KindDieBusy, Chip: 0, Label: "tR"},
	}
	out := Render(interleave(events))
	if !strings.Contains(out, "READ.1 ADDR×5 READ.2") || !strings.Contains(out, "BUSY") {
		t.Errorf("Render output missing content:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render lines = %d, want 2 (controller events skipped)", lines)
	}
	if strings.Contains(out, "(7B)") {
		t.Errorf("Render printed a latch burst's cycle count as a payload:\n%s", out)
	}
}

func checkerForTest() *Checker {
	return NewChecker(onfi.DefaultTiming(), onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200})
}

// legalCmdAddr builds a CMD/ADDR event of exactly legal length for n
// latch cycles starting at t; a confirm burst also holds tWB.
func legalCmdAddr(c *Checker, t sim.Time, chip int16, n int, confirm bool) obs.Event {
	d := c.Timing.TCS + sim.Duration(n)*c.Timing.LatchCycle() + c.Timing.TCH
	e := obs.Event{Start: t, Kind: obs.KindBusCmdAddr, Chip: chip, Bytes: int32(n)}
	if confirm {
		d += c.Timing.TWB
		e.Depth = 1
	}
	e.End = t.Add(d)
	return e
}

func TestCheckerCleanTrace(t *testing.T) {
	c := checkerForTest()
	s1 := legalCmdAddr(c, 0, 0, 7, true)
	busyEnd := s1.End.Add(53 * sim.Microsecond)
	s2 := obs.Event{Start: s1.End, End: busyEnd, Kind: obs.KindDieBusy, Chip: 0, Label: "tR"}
	dataStart := busyEnd.Add(c.Timing.TWHR)
	s3 := obs.Event{
		Start: dataStart,
		End:   dataStart.Add(c.Timing.DataSegment(c.Bus, 512)),
		Kind:  obs.KindBusDataOut, Chip: 0, Bytes: 512,
	}
	if vs := c.Check([]obs.Event{s1, s2, s3}); len(vs) != 0 {
		t.Errorf("clean trace has violations: %v", vs)
	}
}

func TestCheckerOverlap(t *testing.T) {
	c := checkerForTest()
	s1 := obs.Event{Start: 0, End: 100, Kind: obs.KindBusWait}
	s2 := obs.Event{Start: 50, End: 150, Kind: obs.KindBusWait}
	vs := c.Check([]obs.Event{s1, s2})
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "exclusivity") {
		t.Errorf("overlap not caught: %v", vs)
	}
}

func TestCheckerShortLatchBurst(t *testing.T) {
	c := checkerForTest()
	s := obs.Event{Start: 0, End: 1, Kind: obs.KindBusCmdAddr, Bytes: 1}
	vs := c.Check([]obs.Event{s})
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "latch burst") {
		t.Errorf("short latch burst not caught: %v", vs)
	}
}

func TestCheckerShortDataBurst(t *testing.T) {
	c := checkerForTest()
	s := obs.Event{Start: 0, End: 1, Kind: obs.KindBusDataOut, Bytes: 512}
	vs := c.Check([]obs.Event{s})
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "data burst") {
		t.Errorf("short data burst not caught: %v", vs)
	}
}

func TestCheckerTWHRGap(t *testing.T) {
	c := checkerForTest()
	cmd := legalCmdAddr(c, 0, 0, 1, false)
	// Data starts immediately — violates tWHR.
	data := obs.Event{
		Start: cmd.End,
		End:   cmd.End.Add(c.Timing.DataSegment(c.Bus, 1)),
		Kind:  obs.KindBusDataOut, Chip: 0, Bytes: 1,
	}
	vs := c.Check([]obs.Event{cmd, data})
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "tWHR") {
		t.Errorf("tWHR violation not caught: %v", vs)
	}
}

// TestCheckerTWBGap drives a READ through a real channel, so the confirm
// fact comes from the bus, then addresses the same chip again: once
// before the confirm burst (tWB included) ends — flagged — and once
// right at its end — clean.
func TestCheckerTWBGap(t *testing.T) {
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	p := nand.Hynix()
	p.JitterPct = 0
	lun, err := nand.NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	ch.Attach(lun)
	var pins obs.Buffer
	ch.SetTracer(&pins)
	latches := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, p.Geometry.AddrLatches(onfi.Addr{})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	if _, err := ch.Latch(bus.Mask(0), latches, 1); err != nil {
		t.Fatal(err)
	}
	confirm := pins.Events()[0]
	c := NewChecker(ch.Timing(), ch.Config())

	early := legalCmdAddr(c, confirm.End.Add(-c.Timing.TWB/2), 0, 1, false)
	vs := c.Check([]obs.Event{confirm, early})
	var rules []string
	for _, v := range vs {
		rules = append(rules, v.Rule)
	}
	if !strings.Contains(strings.Join(rules, "|"), "tWB") {
		t.Errorf("address burst %v into the confirm burst's tWB not flagged: %v", early.Start, vs)
	}

	onTime := legalCmdAddr(c, confirm.End, 0, 1, false)
	if vs := c.Check([]obs.Event{confirm, onTime}); len(vs) != 0 {
		t.Errorf("address burst after tWB flagged: %v", vs)
	}
}

// violatingTrace breaks every rule the checker has, once each, on top of
// the golden capture.
func violatingTrace() []obs.Event {
	c := checkerForTest()
	events := goldenTrace()
	at := events[len(events)-1].End
	confirm := legalCmdAddr(c, at, 0, 7, true)
	events = append(events,
		confirm,
		legalCmdAddr(c, confirm.End.Add(-1), 0, 1, false), // overlap + tWB
		obs.Event{Start: confirm.End.Add(1000), End: confirm.End.Add(1001), Kind: obs.KindBusCmdAddr, Chip: 1, Bytes: 3},
		obs.Event{Start: confirm.End.Add(2000), End: confirm.End.Add(2001), Kind: obs.KindBusDataOut, Chip: 1, Bytes: 64},
	)
	return events
}

func rulesOf(vs []Violation) []string {
	var rules []string
	for _, v := range vs {
		rules = append(rules, v.Rule)
	}
	sort.Strings(rules)
	return rules
}

// The checker reads a whole controller trace: controller events mixed
// in change which indices the violations name, never which rules break.
func TestCheckerSkipsControllerKinds(t *testing.T) {
	c := checkerForTest()
	alone := c.Check(violatingTrace())
	mixed := c.Check(interleave(violatingTrace()))
	distinct := map[string]bool{}
	for _, v := range alone {
		distinct[v.Rule] = true
	}
	if len(distinct) != 5 {
		t.Fatalf("violating trace breaks %d of the 5 rules: %v", len(distinct), alone)
	}
	if got, want := rulesOf(mixed), rulesOf(alone); !reflect.DeepEqual(got, want) {
		t.Errorf("rules with controller events mixed in = %v, want %v", got, want)
	}
}

// Pin-level events are an interchange format: through JSONLWriter and
// ReadJSONL they render, export and check exactly as before.
func TestJSONLRoundTrip(t *testing.T) {
	c := checkerForTest()
	for name, events := range map[string][]obs.Event{
		"golden":    interleave(goldenTrace()),
		"violating": violatingTrace(),
	} {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		for _, e := range events {
			w.Event(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Render(back), Render(events); got != want {
			t.Errorf("%s: Render after JSONL:\n%s\nwant:\n%s", name, got, want)
		}
		var got, want strings.Builder
		if err := WriteVCD(&got, back, 0); err != nil {
			t.Fatal(err)
		}
		if err := WriteVCD(&want, events, 0); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: VCD after JSONL differs", name)
		}
		if got, want := c.Check(back), c.Check(events); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Check after JSONL = %v, want %v", name, got, want)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Index: 3, Rule: "tWHR", Want: 80 * sim.Nanosecond, Got: 10 * sim.Nanosecond}
	s := v.String()
	if !strings.Contains(s, "event 3") || !strings.Contains(s, "tWHR") {
		t.Errorf("Violation.String = %q", s)
	}
}

// Property: any sequence of back-to-back, legally sized WAIT segments
// passes the checker.
func TestCheckerBackToBackWaitsProperty(t *testing.T) {
	c := checkerForTest()
	f := func(durs []uint16) bool {
		var events []obs.Event
		var at sim.Time
		for _, d := range durs {
			dd := sim.Duration(d) + 1
			events = append(events, obs.Event{Start: at, End: at.Add(dd), Kind: obs.KindBusWait})
			at = at.Add(dd)
		}
		return len(c.Check(events)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteVCD(t *testing.T) {
	ns := func(n int64) sim.Time { return sim.Time(n * int64(sim.Nanosecond)) }
	events := interleave([]obs.Event{
		{Start: 0, End: ns(100), Kind: obs.KindBusCmdAddr, Chip: 0},
		{Start: ns(100), End: ns(50100), Kind: obs.KindDieBusy, Chip: 0},
		{Start: ns(200), End: ns(300), Kind: obs.KindBusDataIn, Chip: 1},
		{Start: ns(400), End: ns(500), Kind: obs.KindBusDataOut, Chip: 1},
		{Start: ns(600), End: ns(700), Kind: obs.KindBusWait, Chip: -1},
	})

	var buf strings.Builder
	if err := WriteVCD(&buf, events, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"chip0_cmdaddr", "chip1_dataout", "chip1_datain",
		"timer_wait", "lun_busy",
		"$enddefinitions $end",
		"#0\n", "#100\n", "#200\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Edges must balance: every signal raised is lowered.
	ones := strings.Count(out, "\n1")
	zeros := strings.Count(out, "\n0")
	if ones == 0 || zeros < ones {
		t.Errorf("unbalanced edges: %d rising, %d falling", ones, zeros)
	}
	// Chip count auto-detection reads the pin-level events only.
	var buf2 strings.Builder
	if err := WriteVCD(&buf2, events, 0); err != nil {
		t.Fatal(err)
	}
	if out2 := buf2.String(); !strings.Contains(out2, "chip1_cmdaddr") || strings.Contains(out2, "chip2_") {
		t.Error("auto chip detection failed")
	}
}
