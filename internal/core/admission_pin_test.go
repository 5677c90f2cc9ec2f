package core_test

import (
	"fmt"
	"strings"
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

// admissionLog keeps the admission layer's events, one line each.
type admissionLog struct{ lines []string }

func (l *admissionLog) Event(e obs.Event) {
	switch e.Kind {
	case obs.KindOpAdmitted, obs.KindAdmissionWait, obs.KindGateOpened, obs.KindOpFinished:
		l.lines = append(l.lines, fmt.Sprintf("%s op=%d chip=%d t=%d err=%t label=%s", e.Kind, e.OpID, e.Chip, e.Time, e.Err, e.Label))
	}
}

// TestAdmissionOrderPinned pins every admission decision of one fixed
// script on a 4-chip channel: single-chip operations that fill a chip's
// active and staged slots and then park, gang operations whose primary
// chip is higher than an extra one, staged successors behind them on
// every chip, a failing operation, and a Close with operations in
// flight. It was recorded before the slots moved from maps to a
// per-way table; a change here is a change of admission behaviour.
func TestAdmissionOrderPinned(t *testing.T) {
	const chips = 4
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
		if err := l.SeedPage(onfi.RowAddr{}, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	cpu, err := cpumodel.New(k, 1000, cpumodel.RTOS())
	if err != nil {
		t.Fatal(err)
	}
	log := &admissionLog{}
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: dram.New(1 << 20), CPU: cpu, Tracer: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)

	slot := 0
	start := func(label string, chip int, extra ...int) {
		slot++
		fn := ops.ReadPage(onfi.Addr{}, slot*1024, 64)
		if len(extra) > 0 {
			fn = ops.GangRead(append([]int{chip}, extra...), onfi.Addr{}, slot*1024, 64)
		}
		if label == "bad" {
			fn = ops.ReadPage(onfi.Addr{Row: onfi.RowAddr{Block: 999}}, slot*1024, 64)
		}
		ctrl.Start(core.OpRequest{Func: fn, Chip: chip, ExtraChips: extra, Label: label})
	}
	// Chip 1 fills both slots and parks a third; a 2-chip gang op takes
	// chips 2 and 0 with a single op staged behind it on each; a 3-chip
	// gang op parks on chips 3, 1 and 0 and reserves them, so later
	// single ops there park too while chip 2's stage.
	start("a1", 1)
	start("a2", 1)
	start("a3", 1)
	start("g20", 2, 0)
	start("c0", 0)
	start("e2", 2)
	start("g310", 3, 1, 0)
	start("d3", 3)
	start("f2", 2)
	start("bad", 2)
	// A second wave lands while the first drains: a gang op over chips 2
	// and 1 behind staged successors on every chip.
	k.At(sim.Time(30*sim.Microsecond), func() {
		for c := 0; c < chips; c++ {
			start(fmt.Sprintf("w%d", c), c)
		}
		start("g21", 2, 1)
		for c := chips - 1; c >= 0; c-- {
			start(fmt.Sprintf("x%d", c), c)
		}
	})
	k.RunFor(650 * sim.Microsecond)
	pendingAtClose := ctrl.Pending()
	statsAtClose := ctrl.Stats()
	ctrl.Close()
	lines := len(log.lines)
	k.Run()
	if len(log.lines) != lines {
		t.Errorf("%d admission events after Close", len(log.lines)-lines)
	}

	got := fmt.Sprintf("%s\npending=%d stats=%+v after-close=%d\n",
		strings.Join(log.lines, "\n"), pendingAtClose, statsAtClose, ctrl.Pending())
	const want = `op-admitted op=1 chip=1 t=900000 err=false label=active
op-admitted op=2 chip=1 t=1800000 err=false label=staged
admission-wait op=3 chip=1 t=2700000 err=false label=a3
op-admitted op=4 chip=2 t=3600000 err=false label=gang
op-admitted op=5 chip=0 t=4500000 err=false label=staged
op-admitted op=6 chip=2 t=5400000 err=false label=staged
admission-wait op=7 chip=3 t=6300000 err=false label=g310
admission-wait op=8 chip=3 t=7200000 err=false label=d3
admission-wait op=9 chip=2 t=8100000 err=false label=f2
admission-wait op=10 chip=2 t=9000000 err=false label=bad
admission-wait op=11 chip=0 t=31900000 err=false label=w0
admission-wait op=12 chip=1 t=32800000 err=false label=w1
admission-wait op=13 chip=2 t=33700000 err=false label=w2
admission-wait op=14 chip=3 t=34600000 err=false label=w3
admission-wait op=15 chip=2 t=35500000 err=false label=g21
admission-wait op=16 chip=3 t=36400000 err=false label=x3
admission-wait op=17 chip=2 t=37300000 err=false label=x2
admission-wait op=18 chip=1 t=38200000 err=false label=x1
admission-wait op=19 chip=0 t=39100000 err=false label=x0
gate-opened op=2 chip=1 t=122150000 err=false label=
op-finished op=1 chip=1 t=124500000 err=false label=a1
op-admitted op=3 chip=1 t=125400000 err=false label=staged
admission-wait op=7 chip=3 t=126300000 err=false label=g310
admission-wait op=8 chip=3 t=127200000 err=false label=d3
admission-wait op=9 chip=2 t=128100000 err=false label=f2
admission-wait op=10 chip=2 t=129000000 err=false label=bad
admission-wait op=11 chip=0 t=129900000 err=false label=w0
admission-wait op=12 chip=1 t=130800000 err=false label=w1
admission-wait op=13 chip=2 t=131700000 err=false label=w2
admission-wait op=14 chip=3 t=132600000 err=false label=w3
admission-wait op=15 chip=2 t=133500000 err=false label=g21
admission-wait op=16 chip=3 t=134400000 err=false label=x3
admission-wait op=17 chip=2 t=135300000 err=false label=x2
admission-wait op=18 chip=1 t=136200000 err=false label=x1
admission-wait op=19 chip=0 t=137100000 err=false label=x0
op-finished op=4 chip=2 t=140100000 err=false label=g20
admission-wait op=7 chip=3 t=141000000 err=false label=g310
admission-wait op=8 chip=3 t=141900000 err=false label=d3
op-admitted op=9 chip=2 t=142800000 err=false label=staged
admission-wait op=10 chip=2 t=143700000 err=false label=bad
admission-wait op=11 chip=0 t=144600000 err=false label=w0
admission-wait op=12 chip=1 t=145500000 err=false label=w1
admission-wait op=13 chip=2 t=146400000 err=false label=w2
admission-wait op=14 chip=3 t=147300000 err=false label=w3
admission-wait op=15 chip=2 t=148200000 err=false label=g21
admission-wait op=16 chip=3 t=149100000 err=false label=x3
admission-wait op=17 chip=2 t=150000000 err=false label=x2
admission-wait op=18 chip=1 t=150900000 err=false label=x1
admission-wait op=19 chip=0 t=151800000 err=false label=x0
gate-opened op=3 chip=1 t=236450000 err=false label=
op-finished op=2 chip=1 t=243000000 err=false label=a2
admission-wait op=7 chip=3 t=243900000 err=false label=g310
admission-wait op=8 chip=3 t=244800000 err=false label=d3
admission-wait op=10 chip=2 t=245700000 err=false label=bad
admission-wait op=11 chip=0 t=246600000 err=false label=w0
admission-wait op=12 chip=1 t=247500000 err=false label=w1
admission-wait op=13 chip=2 t=248400000 err=false label=w2
admission-wait op=14 chip=3 t=249300000 err=false label=w3
admission-wait op=15 chip=2 t=250200000 err=false label=g21
admission-wait op=16 chip=3 t=251100000 err=false label=x3
admission-wait op=17 chip=2 t=252000000 err=false label=x2
admission-wait op=18 chip=1 t=252900000 err=false label=x1
admission-wait op=19 chip=0 t=253800000 err=false label=x0
gate-opened op=9 chip=2 t=265850000 err=false label=
op-finished op=5 chip=0 t=266400000 err=false label=c0
admission-wait op=7 chip=3 t=267300000 err=false label=g310
admission-wait op=8 chip=3 t=268200000 err=false label=d3
admission-wait op=10 chip=2 t=269100000 err=false label=bad
admission-wait op=11 chip=0 t=270000000 err=false label=w0
admission-wait op=12 chip=1 t=270900000 err=false label=w1
admission-wait op=13 chip=2 t=271800000 err=false label=w2
admission-wait op=14 chip=3 t=272700000 err=false label=w3
admission-wait op=15 chip=2 t=273600000 err=false label=g21
admission-wait op=16 chip=3 t=274500000 err=false label=x3
admission-wait op=17 chip=2 t=275400000 err=false label=x2
admission-wait op=18 chip=1 t=276300000 err=false label=x1
admission-wait op=19 chip=0 t=277200000 err=false label=x0
op-finished op=6 chip=2 t=281400000 err=false label=e2
admission-wait op=7 chip=3 t=282300000 err=false label=g310
admission-wait op=8 chip=3 t=283200000 err=false label=d3
op-admitted op=10 chip=2 t=284100000 err=false label=staged
admission-wait op=11 chip=0 t=285000000 err=false label=w0
admission-wait op=12 chip=1 t=285900000 err=false label=w1
admission-wait op=13 chip=2 t=286800000 err=false label=w2
admission-wait op=14 chip=3 t=287700000 err=false label=w3
admission-wait op=15 chip=2 t=288600000 err=false label=g21
admission-wait op=16 chip=3 t=289500000 err=false label=x3
admission-wait op=17 chip=2 t=290400000 err=false label=x2
admission-wait op=18 chip=1 t=291300000 err=false label=x1
admission-wait op=19 chip=0 t=292200000 err=false label=x0
op-finished op=10 chip=2 t=298200000 err=true label=bad
admission-wait op=7 chip=3 t=299100000 err=false label=g310
admission-wait op=8 chip=3 t=300000000 err=false label=d3
admission-wait op=11 chip=0 t=300900000 err=false label=w0
admission-wait op=12 chip=1 t=301800000 err=false label=w1
op-admitted op=13 chip=2 t=302700000 err=false label=staged
admission-wait op=14 chip=3 t=303600000 err=false label=w3
admission-wait op=15 chip=2 t=304500000 err=false label=g21
admission-wait op=16 chip=3 t=305400000 err=false label=x3
admission-wait op=17 chip=2 t=306300000 err=false label=x2
admission-wait op=18 chip=1 t=307200000 err=false label=x1
admission-wait op=19 chip=0 t=308100000 err=false label=x0
op-finished op=3 chip=1 t=348900000 err=false label=a3
op-admitted op=7 chip=3 t=349800000 err=false label=gang
op-admitted op=8 chip=3 t=350700000 err=false label=staged
op-admitted op=11 chip=0 t=351600000 err=false label=staged
op-admitted op=12 chip=1 t=352500000 err=false label=staged
admission-wait op=14 chip=3 t=353400000 err=false label=w3
admission-wait op=15 chip=2 t=354300000 err=false label=g21
admission-wait op=16 chip=3 t=355200000 err=false label=x3
admission-wait op=17 chip=2 t=356100000 err=false label=x2
admission-wait op=18 chip=1 t=357000000 err=false label=x1
admission-wait op=19 chip=0 t=357900000 err=false label=x0
gate-opened op=13 chip=2 t=375350000 err=false label=
op-finished op=9 chip=2 t=378900000 err=false label=f2
admission-wait op=14 chip=3 t=379800000 err=false label=w3
admission-wait op=15 chip=2 t=380700000 err=false label=g21
admission-wait op=16 chip=3 t=381600000 err=false label=x3
admission-wait op=17 chip=2 t=382500000 err=false label=x2
admission-wait op=18 chip=1 t=383400000 err=false label=x1
admission-wait op=19 chip=0 t=384300000 err=false label=x0
op-finished op=7 chip=3 t=476100000 err=false label=g310
op-admitted op=14 chip=3 t=477000000 err=false label=staged
admission-wait op=15 chip=2 t=477900000 err=false label=g21
admission-wait op=16 chip=3 t=478800000 err=false label=x3
admission-wait op=17 chip=2 t=479700000 err=false label=x2
admission-wait op=18 chip=1 t=480600000 err=false label=x1
op-admitted op=19 chip=0 t=481500000 err=false label=staged
op-finished op=13 chip=2 t=505500000 err=false label=w2
admission-wait op=15 chip=2 t=506400000 err=false label=g21
admission-wait op=16 chip=3 t=507300000 err=false label=x3
admission-wait op=17 chip=2 t=508200000 err=false label=x2
admission-wait op=18 chip=1 t=509100000 err=false label=x1
gate-opened op=19 chip=0 t=588350000 err=false label=
gate-opened op=14 chip=3 t=590150000 err=false label=
op-finished op=12 chip=1 t=590700000 err=false label=w1
op-admitted op=15 chip=2 t=591600000 err=false label=gang
admission-wait op=16 chip=3 t=592500000 err=false label=x3
op-admitted op=17 chip=2 t=593400000 err=false label=staged
op-admitted op=18 chip=1 t=594300000 err=false label=staged
op-finished op=11 chip=0 t=595500000 err=false label=w0
admission-wait op=16 chip=3 t=596400000 err=false label=x3
op-finished op=8 chip=3 t=599400000 err=false label=d3
op-admitted op=16 chip=3 t=600300000 err=false label=staged
pending=6 stats={OpsSubmitted:19 OpsCompleted:13 OpsFailed:1 TxnsExecuted:188 AdmissionWaits:106 Recoveries:0} after-close=0
`
	if got != want {
		t.Errorf("admission order changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
