package analyze

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// synthetic builds a two-op stream with known component times:
// op 1 reads (queue wait 0), op 2 parks first.
func synthetic() []obs.Event {
	return []obs.Event{
		{Time: 10, Kind: obs.KindCPUCharge, OpID: 1, Label: "admit", Dur: 10, Cycles: 5},
		{Time: 10, Kind: obs.KindOpAdmitted, OpID: 1, Chip: 0, Label: "active"},
		{Time: 12, Kind: obs.KindAdmissionWait, OpID: 2, Chip: 0},
		{Time: 20, Kind: obs.KindOpResumed, OpID: 1},
		{Time: 30, Kind: obs.KindTxnEnqueued, OpID: 1, TxnID: 1, Chip: 0, Depth: 1},
		{Time: 40, Kind: obs.KindHWInstr, OpID: 1, TxnID: 1, Chip: 0, Label: "cmd-addr", Dur: 8},
		{Time: 100, Kind: obs.KindHWInstr, OpID: 1, TxnID: 1, Chip: 0, Label: "data-read", Bytes: 64, Dur: 30},
		{Time: 100, Kind: obs.KindTxnExecuted, OpID: 1, TxnID: 1, Chip: 0, Start: 32, End: 100, Dur: 38},
		{Time: 101, Kind: obs.KindPollResubmit, OpID: 1, Chip: 0},
		{Time: 200, Kind: obs.KindOpFinished, OpID: 1, Chip: 0, Dur: 200},
		{Time: 210, Kind: obs.KindOpAdmitted, OpID: 2, Chip: 0, Label: "active"},
		{Time: 400, Kind: obs.KindOpFinished, OpID: 2, Chip: 0, Dur: 390},
	}
}

func TestCorrelateSpans(t *testing.T) {
	spans := Correlate(synthetic())
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	s := spans[0]
	if s.OpID != 1 || !s.Complete || s.Err {
		t.Fatalf("span 0 = %+v", s)
	}
	if s.Submitted != 0 || s.Admitted != 10 || s.Finished != 200 || s.Latency != 200 {
		t.Fatalf("span 0 times: sub=%d adm=%d fin=%d lat=%d", s.Submitted, s.Admitted, s.Finished, s.Latency)
	}
	if s.QueueWait() != 10 || s.ChannelTime != 38 || s.FirmwareTime != 10 {
		t.Fatalf("span 0 components: qw=%d ch=%d fw=%d", s.QueueWait(), s.ChannelTime, s.FirmwareTime)
	}
	// Residual: 200 − 10 − 38 − 10 = 142.
	if s.CellTime() != 142 {
		t.Fatalf("span 0 cell = %d, want 142", s.CellTime())
	}
	if len(s.Txns) != 1 || s.Txns[0].BusTime != 38 || s.Polls != 1 || s.Resumes != 1 || s.HWInstrs != 2 {
		t.Fatalf("span 0 detail: %+v", s)
	}
	s2 := spans[1]
	if s2.OpID != 2 || s2.Waits != 1 || s2.QueueWait() != 200 /* 210 − (400−390) */ {
		t.Fatalf("span 1 = %+v qw=%d", s2, s2.QueueWait())
	}
	// ChannelTime 0 for op 2 → cell absorbs the rest, clamped math holds.
	if got, want := s2.CellTime(), s2.Latency-s2.QueueWait(); got != want {
		t.Fatalf("span 1 cell = %d, want %d", got, want)
	}
}

func TestCorrelateIncomplete(t *testing.T) {
	ev := synthetic()
	spans := Correlate(ev[:len(ev)-1]) // drop op 2's completion
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[1].Complete || spans[1].OpID != 2 {
		t.Fatalf("truncated span = %+v", spans[1])
	}
	if c := SummarizeSpans(spans); c.Latency.Count != 1 {
		t.Fatalf("summary counted incomplete span: %+v", c.Latency)
	}
}

// A merged sweep trace restarts the virtual clock (and op IDs) per rig;
// SplitRuns must cut at the time reversal so spans never alias.
func TestSplitRunsAndAnalyze(t *testing.T) {
	merged := append(append([]obs.Event{}, synthetic()...), synthetic()...)
	runs := SplitRuns(merged)
	if len(runs) != 2 || len(runs[0]) != len(synthetic()) {
		t.Fatalf("runs = %d (%d events in first), want 2 runs", len(runs), len(runs[0]))
	}
	res := Analyze(merged)
	if len(res.Runs) != 2 || len(res.Spans) != 4 {
		t.Fatalf("analyze: %d runs, %d spans; want 2, 4", len(res.Runs), len(res.Spans))
	}
	if res.Components.Latency.Count != 4 {
		t.Fatalf("latency count = %d, want 4", res.Components.Latency.Count)
	}
	// p50 of {200,390,200,390} nearest-rank = 200; max 390.
	if res.Components.Latency.P50 != 200 || res.Components.Latency.Max != 390 {
		t.Fatalf("latency p50=%d max=%d", res.Components.Latency.P50, res.Components.Latency.Max)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	var samples []sim.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		samples = append(samples, sim.Duration(i))
	}
	s := Summarize(samples)
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 || s.Min != 1 || s.Max != 100 || s.Mean != 50 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestTimelineOccupancyAndViolations(t *testing.T) {
	tl := &Timeline{Channel: 0}
	add := func(start, end sim.Time, chip int, label string) {
		tl.add(Interval{Start: start, End: end, Chip: chip, Label: label})
	}
	add(0, 10, 0, "cmd-addr")
	add(20, 30, 1, "cmd-addr")
	add(50, 52, 0, "cmd-addr")
	add(60, 61, 0, "data-read")
	add(120, 160, 0, "data-read")
	tl.sortIntervals()

	o := tl.Occupancy()
	if o.Span != 160 {
		t.Fatalf("span = %d", o.Span)
	}
	if o.Busy != 10+10+2+1+40 {
		t.Fatalf("busy = %d", o.Busy)
	}
	if o.Idle != o.Span-o.Busy {
		t.Fatalf("idle = %d", o.Idle)
	}
	if o.IdleGaps != 4 || o.LongestIdle != 59 {
		t.Fatalf("gaps=%d longest=%d", o.IdleGaps, o.LongestIdle)
	}
	if v := tl.Violations(); len(v) != 0 {
		t.Fatalf("clean timeline reported violations: %v", v)
	}

	// Now inject each violation class.
	add(5, 15, 1, "cmd-addr") // overlaps [0,10)
	add(70, 70, 0, "cmd-addr")
	tl.sortIntervals()
	v := tl.Violations()
	rules := map[string]int{}
	for _, x := range v {
		rules[x.Rule]++
	}
	if rules["channel exclusivity"] == 0 || rules["zero-length burst"] != 1 || len(rules) != 2 {
		t.Fatalf("violation rules = %v (%v)", rules, v)
	}
}

func TestGanttAndCSVShape(t *testing.T) {
	res := Analyze(synthetic())
	if len(res.Runs) != 1 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	tl := res.Runs[0].Timelines[0]
	if tl == nil {
		t.Fatal("no timeline for channel 0")
	}
	g := tl.Gantt(40)
	if !strings.Contains(g, "bus |") || strings.Contains(g, "die |") {
		t.Fatalf("gantt lanes are not bus-only:\n%s", g)
	}
	if !strings.Contains(g, "C") || !strings.Contains(g, "R") {
		t.Fatalf("gantt missing cmd/data glyphs:\n%s", g)
	}
	csv := res.CSV()
	for _, col := range []string{"component,count,mean_ps", "run,channel,span_ps", "run_op,channel,chip"} {
		if !strings.Contains(csv, col) {
			t.Fatalf("CSV missing section header %q:\n%s", col, csv)
		}
	}
	if !strings.Contains(res.Render(), "protocol violations: none") {
		t.Fatalf("report:\n%s", res.Render())
	}
}

// The integration acceptance check: run a real rig, analyze its event
// stream, and require the reconstruction to agree with the independent
// obs.Metrics aggregates — summed span channel time equals the
// registry's hardware time, per-op firmware sums stay below total
// software time (scheduling is unattributable), mean span latency
// matches the latency histogram, the timeline's merged occupancy equals
// hardware busy time, and the protocol pass comes back clean.
func TestAnalyzeRealRigMatchesMetrics(t *testing.T) {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	var buf obs.Buffer
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: p, Ways: 2, RateMT: 200,
		Controller: ssd.CtrlBabolCoro, CPUMHz: 150,
		Observe: true, Tracer: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	const reads = 24
	if err := rig.SSD.Preload(reads); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: reads, QueueDepth: 4, LogicalPages: reads,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != reads || res.Failed != 0 {
		t.Fatalf("workload: %d/%d completed, %d failed", res.Completed, reads, res.Failed)
	}

	want := rig.Metrics.Snapshot()
	a := Analyze(buf.Events())
	if len(a.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(a.Runs))
	}
	if got := uint64(len(a.Spans)); got != want.OpsFinished {
		t.Fatalf("spans = %d, metrics ops = %d", got, want.OpsFinished)
	}
	var chanSum, fwSum, latSum sim.Duration
	polls := 0
	for i := range a.Spans {
		s := &a.Spans[i]
		if !s.Complete {
			t.Fatalf("incomplete span %+v in a full trace", s)
		}
		if s.Latency != s.QueueWait()+s.ChannelTime+s.CellTime()+s.FirmwareTime {
			t.Fatalf("op %d: components do not sum to latency", s.OpID)
		}
		chanSum += s.ChannelTime
		fwSum += s.FirmwareTime
		latSum += s.Latency
		polls += s.Polls
	}
	if chanSum != want.HardwareTime {
		t.Fatalf("span channel time %v != metrics hardware time %v", chanSum, want.HardwareTime)
	}
	if fwSum >= want.SoftwareTime {
		t.Fatalf("attributed firmware %v not below total software %v", fwSum, want.SoftwareTime)
	}
	if uint64(polls) != want.PollResubmits {
		t.Fatalf("span polls %d != metrics polls %d", polls, want.PollResubmits)
	}
	if int64(latSum) != want.OpLatency.Sum {
		t.Fatalf("span latency sum %d != histogram sum %d", latSum, want.OpLatency.Sum)
	}
	if a.Metrics.Events != want.Events {
		t.Fatalf("replayed %d events, metrics saw %d", a.Metrics.Events, want.Events)
	}

	tl := a.Runs[0].Timelines[0]
	o := tl.Occupancy()
	if o.Busy != want.HardwareTime {
		t.Fatalf("timeline busy %v != hardware time %v", o.Busy, want.HardwareTime)
	}
	if v := a.Violations; len(v) != 0 {
		t.Fatalf("protocol violations on a real trace: %v", v)
	}
}

// The channel's pin-level events and a frontend's host-enqueue
// recording can share the controller's tracer: a registry and the
// analyzer fed the mixed stream report exactly what they report for the
// stream without them, on one run and on a merged two-run trace.
func TestAnalyzeIgnoresPinLevelEvents(t *testing.T) {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	var buf obs.Buffer
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: p, Channels: 2, Ways: 2, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, Tracer: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	for c, ch := range rig.Channels {
		ch.SetTracer(obs.OnChannel(&buf, c))
	}
	const ops = 24
	if err := rig.SSD.Preload(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead, ReadPercent: 50,
		NumOps: ops, QueueDepth: 4, LogicalPages: ops, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()

	mixed := append([]obs.Event{{Kind: obs.KindHostEnqueue, Chip: -1, Depth: 1, Cycles: 1, TxnID: 7, Label: "t"}}, buf.Events()...)
	var plain []obs.Event
	for _, e := range mixed {
		if !e.Kind.PinLevel() && e.Kind != obs.KindHostEnqueue {
			plain = append(plain, e)
		}
	}
	if len(plain) == len(mixed) {
		t.Fatal("the channels emitted no pin-level events")
	}
	for name, pair := range map[string][2][]obs.Event{
		"one run":  {mixed, plain},
		"two runs": {append(slices.Clone(mixed), mixed...), append(slices.Clone(plain), plain...)},
	} {
		got, want := obs.NewMetrics(), obs.NewMetrics()
		got.Replay(pair[0])
		want.Replay(pair[1])
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: Metrics differ with pin-level events", name)
		}
		if a, b := Analyze(pair[0]), Analyze(pair[1]); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Analyze differs with pin-level events:\n%s\nwant:\n%s", name, a.Render(), b.Render())
		}
	}
}

// A fault-injection trace must surface its forensics in both report
// forms; a quiet trace must render without the section so the
// checked-in goldens stay stable.
func TestRenderFaultRecoverySection(t *testing.T) {
	quiet := Analyze(synthetic())
	if strings.Contains(quiet.Render(), "fault injection") || strings.Contains(quiet.CSV(), "kind,label,count") {
		t.Fatal("quiet trace rendered the fault section")
	}

	events := append(synthetic(),
		obs.Event{Time: 500, Kind: obs.KindFault, Chip: 1, Label: "stuck-busy"},
		obs.Event{Time: 510, Kind: obs.KindFault, Chip: 1, Label: "stuck-busy"},
		obs.Event{Time: 520, Kind: obs.KindFault, Chip: 0, Label: "ecc-burst"},
		obs.Event{Time: 600, Kind: obs.KindRecovery, Chip: 1, Label: "reset"},
		obs.Event{Time: 700, Kind: obs.KindRecovery, Chip: 1, Label: "chip-offline"},
	)
	res := Analyze(events)
	report := res.Render()
	for _, want := range []string{
		"fault injection & recovery (all runs):",
		"faults:     3 (ecc-burst=1 stuck-busy=2)",
		"recoveries: 2 (chip-offline=1 reset=1)",
		"run 0   ch0 chip1: faults=2 recoveries=2",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	csv := res.CSV()
	for _, want := range []string{
		"kind,label,count\n",
		"fault,stuck-busy,2\n",
		"recovery,reset,1\n",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}
