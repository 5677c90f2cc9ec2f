package analyze

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// raceDetectorEnabled is set by race_test.go under -race.
var raceDetectorEnabled = false

// referenceCorrelate and referenceSplitRuns are the correlator and the
// run splitter as they stood before the span table, the transaction
// arena and the admitted-op bitset — a map of span pointers, a slice
// grown per transaction, a map entry per admitted op — kept verbatim as
// the reference FuzzCorrelate holds the new ones to.
func referenceCorrelate(events []obs.Event) []Span {
	type key struct {
		channel int
		op      uint64
	}
	open := make(map[key]*Span)
	var done []Span
	get := func(e *obs.Event) *Span {
		k := key{int(e.Channel), e.OpID}
		s := open[k]
		if s == nil {
			s = &Span{OpID: e.OpID, Channel: int(e.Channel), Chip: -1, Submitted: e.Time}
			open[k] = s
		}
		return s
	}
	for i := range events {
		e := &events[i]
		if e.OpID == 0 {
			// Not op-attributable: scheduling charges, gate opens.
			continue
		}
		switch e.Kind {
		case obs.KindOpAdmitted:
			s := get(e)
			s.Admitted = e.Time
			s.Chip = int(e.Chip)
			s.Slot = e.Label
		case obs.KindAdmissionWait:
			get(e).Waits++
		case obs.KindOpResumed:
			get(e).Resumes++
		case obs.KindPollResubmit:
			get(e).Polls++
		case obs.KindCPUCharge:
			get(e).FirmwareTime += e.Dur
		case obs.KindHWInstr:
			get(e).HWInstrs++
		case obs.KindTxnExecuted:
			s := get(e)
			s.Txns = append(s.Txns, TxnSpan{
				TxnID: e.TxnID, Chip: int(e.Chip),
				Start: e.Start, End: e.End, BusTime: e.Dur, Err: e.Err,
			})
			s.ChannelTime += e.Dur
		case obs.KindOpFinished:
			s := get(e)
			s.Finished = e.Time
			s.Latency = e.Dur
			s.Submitted = e.Time.Add(-e.Dur)
			s.Err = e.Err
			s.Complete = true
			done = append(done, *s)
			delete(open, key{int(e.Channel), e.OpID})
		}
	}
	rest := make([]Span, 0, len(open))
	for _, s := range open {
		rest = append(rest, *s)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Channel != rest[j].Channel {
			return rest[i].Channel < rest[j].Channel
		}
		return rest[i].OpID < rest[j].OpID
	})
	return append(done, rest...)
}

func referenceSplitRuns(events []obs.Event) [][]obs.Event {
	type key struct {
		channel int
		op      uint64
	}
	seen := make(map[key]bool)
	var runs [][]obs.Event
	start := 0
	for i := range events {
		e := &events[i]
		if e.OpID == 0 {
			continue
		}
		admission := e.Kind == obs.KindOpAdmitted ||
			(e.Kind == obs.KindCPUCharge && e.Label == "admit")
		if !admission {
			continue
		}
		k := key{int(e.Channel), e.OpID}
		if e.Kind == obs.KindCPUCharge && !seen[k] {
			// Admit charges also fire when a parked op is re-admitted,
			// so only a charge for an op this run has *already* admitted
			// marks a boundary.
			continue
		}
		if seen[k] {
			runs = append(runs, events[start:i])
			start = i
			seen = make(map[key]bool)
		}
		if e.Kind == obs.KindOpAdmitted {
			seen[k] = true
		}
	}
	if start < len(events) {
		runs = append(runs, events[start:])
	}
	return runs
}

// fuzzEvents decodes fuzz input into an event stream. Input starting
// with '{' is a JSONL trace, read up to its first bad line, so prefixes
// of real traces seed the corpus. Anything else is four bytes per event,
// drawn to collide: every kind, either Err, op IDs 0–5 on three
// channels (so ops interleave, repeat, and reuse an ID after finishing),
// chips −1–2, six labels, and forward or backward time steps; a tail
// shorter than four bytes is dropped.
func fuzzEvents(data []byte) []obs.Event {
	if len(data) > 0 && data[0] == '{' {
		events, _ := obs.ReadJSONL(bytes.NewReader(data))
		return events
	}
	const kinds = int(obs.KindHostCmd) + 1
	labels := [...]string{"active", "staged", "gang", "admit", "submit", ""}
	var events []obs.Event
	var now sim.Time
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		step := sim.Duration(b[3] & 0x3f)
		if b[3]&0x40 != 0 {
			step = -step
		}
		now = now.Add(step)
		events = append(events, obs.Event{
			Time: now, Kind: obs.Kind(int(b[0]&0x7f) % kinds), Err: b[0]&0x80 != 0,
			Channel: int16(b[1]/6) % 3, OpID: uint64(b[1] % 6), TxnID: uint64(i/4 + 1),
			Chip: int16(b[2]%4) - 1, Label: labels[int(b[2]/4)%len(labels)],
			Dur: sim.Duration(b[3]), Start: now.Add(-sim.Duration(b[3])), End: now,
		})
	}
	return events
}

// FuzzCorrelate holds Correlate and SplitRuns to their references on
// any stream: the same spans, fields, transaction lists and order, the
// same runs.
func FuzzCorrelate(f *testing.F) {
	for _, name := range []string{"mini.jsonl", "mini_tenants.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "babolbench", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		// Each cut lands mid-line, so every prefix ends in a truncated
		// tail with ops still in flight.
		for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
			f.Add(raw[:min(n, len(raw))])
		}
	}
	// Each group is one event: kind (|0x80 = Err), op+6·channel,
	// chip+1+4·label, time step. Op 1 on channel 0 finishes and is
	// reused; op 2 on channel 1 never finishes; op 3 on channel 2
	// finishes failed with no transaction; op 0 is unattributed; two
	// bytes of tail are dropped.
	f.Add([]byte{
		0, 1, 1, 5, 0, 8, 2, 5, 6, 1, 1, 10, 9, 0, 0, 3, 6, 8, 2, 10,
		3, 1, 1, 20, 0, 1, 1, 5, 1, 15, 0, 1, 0x83, 15, 0, 8, 10, 8, 2, 4,
		0x42, 0x07,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzEvents(data)
		if got, want := SplitRuns(events), referenceSplitRuns(events); !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitRuns differs from the reference: %d runs, want %d", len(got), len(want))
		}
		got, want := Correlate(events), referenceCorrelate(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Correlate differs from the reference on %d events:\n got %+v\nwant %+v", len(events), got, want)
		}
	})
}

// recordReads runs n sequential reads at queue depth 16 on the ledger's
// 1×8 channel (RTOS firmware at 1 GHz) and returns its event stream.
func recordReads(tb testing.TB, n int) []obs.Event {
	tb.Helper()
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	var buf obs.Buffer
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: p, Ways: 8, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000, Tracer: &buf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer rig.Close()
	const pages = 64
	if err := rig.SSD.Preload(pages); err != nil {
		tb.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: n, QueueDepth: 16, LogicalPages: pages,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rig.Run()
	if res.Completed != n || res.Failed != 0 {
		tb.Fatalf("workload: %d/%d completed, %d failed", res.Completed, n, res.Failed)
	}
	return buf.Events()
}

// TestAllocGateAnalyze holds the analyzer to a cost per stream, not per
// operation: analyzing four times the ops may add only the few
// allocations of a geometrically grown table, arena or timeline.
func TestAllocGateAnalyze(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 500
	small, large := recordReads(t, n), recordReads(t, 4*n)
	allocs := func(events []obs.Event) float64 {
		return testing.AllocsPerRun(5, func() {
			if res := Analyze(events); len(res.Spans) != len(res.Runs[0].Spans) {
				t.Fatal("spans lost")
			}
		})
	}
	a, b := allocs(small), allocs(large)
	t.Logf("Analyze: %.0f allocations for %d ops, %.0f for %d", a, n, b, 4*n)
	if extra := b - a; extra > 32 {
		t.Errorf("%d more ops cost %.0f more allocations, want ≤ 32 (none per op)", 3*n, extra)
	}
}

// BenchmarkAnalyze is the analyze rung of the layer ladder: one recorded
// 1×8 read stream through Analyze, per op and per event.
func BenchmarkAnalyze(b *testing.B) {
	events := recordReads(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Analyze(events).Spans) != 2000 {
			b.Fatal("spans lost")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
