package obs

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("KindFromString(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
		// The canonical decoder looks the name up as bytes.
		if back, ok := kindOf([]byte(name)); !ok || back != k {
			t.Fatalf("kindOf([]byte(%q)) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	for _, name := range []string{"nope", "", "unknown", "OP-RESUMED", "op-resumed ", "die-busy\x00"} {
		if k, ok := KindFromString(name); ok {
			t.Fatalf("KindFromString accepted %q as %v", name, k)
		}
		if k, ok := kindOf([]byte(name)); ok {
			t.Fatalf("kindOf accepted %q as %v", name, k)
		}
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Fatalf("out-of-range Kind.String() = %q", got)
	}
}

// TestEventSize pins the narrow Event: every traced event is stored in
// the rig's Buffer and again in the slice ReadJSONL returns, so its
// bytes are what tracing costs in memory.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 88 {
		t.Errorf("unsafe.Sizeof(obs.Event{}) = %d, want ≤ 88", size)
	}
}

func TestOnChannelTagsAndPreservesNil(t *testing.T) {
	if OnChannel(nil, 3) != nil {
		t.Fatal("OnChannel(nil) must stay nil so emission sites skip entirely")
	}
	var got []Event
	tr := OnChannel(Func(func(e Event) { got = append(got, e) }), 7)
	tr.Event(Event{Kind: KindGateOpened, Chip: 2})
	if len(got) != 1 || got[0].Channel != 7 || got[0].Chip != 2 {
		t.Fatalf("tagged event = %+v", got)
	}
}

func TestMultiSkipsNil(t *testing.T) {
	var n int
	m := Multi{nil, Func(func(Event) { n++ }), nil, Func(func(Event) { n++ })}
	m.Event(Event{})
	if n != 2 {
		t.Fatalf("Multi delivered to %d tracers, want 2", n)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1024, -5} {
		h.Observe(v)
	}
	if h.Count != 7 {
		t.Fatalf("Count = %d", h.Count)
	}
	if h.Max != 1024 {
		t.Fatalf("Max = %d", h.Max)
	}
	// 0 and -5 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3;
	// 1024 → bucket 11.
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 1, 11: 1}
	for b, n := range want {
		if h.Buckets[b] != n {
			t.Fatalf("bucket %d = %d, want %d", b, h.Buckets[b], n)
		}
	}
	if got := h.Mean(); got != float64(1034)/7 {
		t.Fatalf("Mean = %v", got)
	}
}

// sampleStream is a hand-built event sequence exercising every kind.
func sampleStream() []Event {
	return []Event{
		{Time: 10, Kind: KindCPUCharge, Label: "admit", Cycles: 100, Dur: 500},
		{Time: 10, Kind: KindOpAdmitted, OpID: 1, Chip: 0, Label: "active"},
		{Time: 12, Kind: KindAdmissionWait, OpID: 2, Chip: 0},
		{Time: 15, Kind: KindCPUCharge, Label: "submit", Cycles: 50, Dur: 250},
		{Time: 15, Kind: KindTxnEnqueued, OpID: 1, TxnID: 1, Chip: 0, Depth: 1},
		{Time: 16, Kind: KindTxnPopped, TxnID: 1, Depth: 0},
		{Time: 30, Kind: KindTxnExecuted, OpID: 1, TxnID: 1, Chip: 0, Start: 16, End: 30, Dur: 14},
		{Time: 30, Kind: KindGateOpened, Chip: 0},
		{Time: 31, Kind: KindPollResubmit, OpID: 1, Chip: 0},
		{Time: 32, Kind: KindOpResumed, OpID: 1},
		{Time: 40, Kind: KindOpFinished, OpID: 1, Chip: 0, Dur: 30},
		{Time: 41, Kind: KindOpFinished, OpID: 3, Chip: 1, Dur: 5, Err: true},
		{Time: 42, Kind: KindHWInstr, TxnID: 1, Chip: 0, Label: "data-read", Bytes: 4096, Dur: 7},
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	m.Replay(sampleStream())
	s := m.Snapshot()

	if s.Events != 13 {
		t.Fatalf("Events = %d", s.Events)
	}
	if s.FirstEvent != 10 || s.LastEvent != 42 {
		t.Fatalf("span [%v, %v]", s.FirstEvent, s.LastEvent)
	}
	if s.Span() != 32 {
		t.Fatalf("Span = %v", s.Span())
	}
	if s.SoftwareTime != 750 || s.SoftwareCycles != 150 {
		t.Fatalf("software %v / %d cycles", s.SoftwareTime, s.SoftwareCycles)
	}
	if s.HardwareTime != 14 {
		t.Fatalf("HardwareTime = %v", s.HardwareTime)
	}
	if got := s.SoftwareShare(); got != 750.0/764.0 {
		t.Fatalf("SoftwareShare = %v", got)
	}
	if s.OpsAdmitted != 1 || s.OpsResumed != 1 || s.OpsFinished != 2 || s.OpsFailed != 1 {
		t.Fatalf("op counters %+v", s)
	}
	if s.AdmissionWaits != 1 || s.GateOpens != 1 || s.PollResubmits != 1 {
		t.Fatalf("wait/gate/poll counters %+v", s)
	}
	if s.TxnsEnqueued != 1 || s.TxnsPopped != 1 || s.TxnsExecuted != 1 {
		t.Fatalf("txn counters %+v", s)
	}
	if s.Charges["admit"].Count != 1 || s.Charges["admit"].Cycles != 100 || s.Charges["admit"].Time != 500 {
		t.Fatalf("admit charge %+v", s.Charges["admit"])
	}
	if s.Charges["submit"].Time != 250 {
		t.Fatalf("submit charge %+v", s.Charges["submit"])
	}
	if s.QueueDepth.Count != 2 {
		t.Fatalf("QueueDepth.Count = %d", s.QueueDepth.Count)
	}
	if s.OpLatency.Count != 2 || s.OpLatency.Sum != 35 {
		t.Fatalf("OpLatency %+v", s.OpLatency)
	}

	ch := s.Channels[0]
	if ch.TxnsEnqueued != 1 || ch.TxnsExecuted != 1 || ch.GateOpens != 1 || ch.BusyTime != 14 {
		t.Fatalf("channel 0 %+v", ch)
	}

	c0 := s.Chips[ChipKey{Channel: 0, Chip: 0}]
	if c0.OpsAdmitted != 1 || c0.OpsFinished != 1 || c0.AdmissionWaits != 1 ||
		c0.PollResubmits != 1 || c0.TxnsExecuted != 1 || c0.BusyTime != 14 {
		t.Fatalf("chip (0,0) %+v", c0)
	}
	c1 := s.Chips[ChipKey{Channel: 0, Chip: 1}]
	if c1.OpsFinished != 1 || c1.OpsFailed != 1 {
		t.Fatalf("chip (0,1) %+v", c1)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m := NewMetrics()
	m.Replay(sampleStream())
	s1 := m.Snapshot()
	m.Event(Event{Time: 100, Kind: KindGateOpened, Chip: 0})
	s2 := m.Snapshot()
	if s1.GateOpens != 1 || s2.GateOpens != 2 {
		t.Fatalf("global: s1=%d s2=%d", s1.GateOpens, s2.GateOpens)
	}
	if s1.Channels[0].GateOpens != 1 || s2.Channels[0].GateOpens != 2 {
		t.Fatalf("per-channel: s1=%d s2=%d", s1.Channels[0].GateOpens, s2.Channels[0].GateOpens)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleStream()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Count(buf.Bytes(), []byte("\n")) != len(events) {
		t.Fatalf("want %d lines, got %d", len(events), bytes.Count(buf.Bytes(), []byte("\n")))
	}

	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", events, back)
	}

	// Replaying the decoded stream must reproduce the live aggregation.
	live, replayed := NewMetrics(), NewMetrics()
	live.Replay(events)
	replayed.Replay(back)
	if !reflect.DeepEqual(live.Snapshot(), replayed.Snapshot()) {
		t.Fatal("replayed snapshot differs from live snapshot")
	}
}

func TestReadJSONLRejectsUnknownKind(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString(`{"t":1,"kind":"martian"}` + "\n")); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

var benchSink sim.Duration

// BenchmarkNilTracerGuard documents the disabled-path cost: one nil
// compare per site.
func BenchmarkNilTracerGuard(b *testing.B) {
	var tr Tracer
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Event(Event{})
		}
		benchSink++
	}
}
