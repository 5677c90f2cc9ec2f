package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sim"
)

// refEncode and refReadJSONL are the codec as it stood before the fast
// paths — encoding/json in both directions, nothing else — kept here
// verbatim as the reference the fuzz targets hold the new one to.
func refEncode(t testing.TB, e Event) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jsonlEvent{
		Time: e.Time, Kind: e.Kind.String(), Channel: e.Channel,
		OpID: e.OpID, TxnID: e.TxnID, Chip: e.Chip,
		Dur: e.Dur, Start: e.Start, End: e.End, Depth: e.Depth,
		Cycles: e.Cycles, Bytes: e.Bytes, Err: e.Err, Label: e.Label,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return out, fmt.Errorf("obs: line %d: %w", line, err)
		}
		k, ok := KindFromString(je.Kind)
		if !ok {
			return out, fmt.Errorf("obs: line %d: unknown kind %q", line, je.Kind)
		}
		out = append(out, Event{
			Time: je.Time, Kind: k, Channel: je.Channel,
			OpID: je.OpID, TxnID: je.TxnID, Chip: je.Chip,
			Dur: je.Dur, Start: je.Start, End: je.End, Depth: je.Depth,
			Cycles: je.Cycles, Bytes: je.Bytes, Err: je.Err, Label: je.Label,
		})
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: line %d: %w", line+1, err)
	}
	return out, nil
}

func encode(t testing.TB, events ...Event) []byte {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// agreeOnInput is the decoder's whole contract: for any bytes, the same
// events and the same error text as the reference; and the fast path
// takes a line only when it is canonical — exactly what the reference
// encoder writes for the event it decoded to.
func agreeOnInput(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ReadJSONL(bytes.NewReader(data))
	want, wantErr := refReadJSONL(bytes.NewReader(data))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events differ from the reference on %q:\n got %+v\nwant %+v", data, got, want)
	}
	if errText(gotErr) != errText(wantErr) {
		t.Errorf("error differs from the reference on %q:\n got %s\nwant %s", data, errText(gotErr), errText(wantErr))
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e Event
		if raw := bytes.TrimSpace(line); parseCanonical(raw, &e, map[string]string{}) {
			if canon := refEncode(t, e); string(canon) != string(raw)+"\n" {
				t.Errorf("fast path took the non-canonical line %q (canonical: %q)", raw, canon)
			}
		}
	}
}

func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { agreeOnInput(t, data) })
}

// FuzzJSONLEncode: for any event, the writer's bytes are the reference
// encoder's bytes, the decoder agrees with the reference on them, and a
// representable event (known kind, valid UTF-8 label) round-trips.
func FuzzJSONLEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, at int64, kind uint8, ch int, op, txn uint64, chip int,
		dur, start, end int64, depth int, cycles int64, nbytes int, failed bool, label string) {
		e := Event{
			Time: sim.Time(at), Kind: Kind(kind), Err: failed, Channel: ch, OpID: op, TxnID: txn,
			Chip: chip, Dur: sim.Duration(dur), Start: sim.Time(start), End: sim.Time(end),
			Depth: depth, Cycles: cycles, Bytes: nbytes, Label: label,
		}
		got, want := encode(t, e), refEncode(t, e)
		if !bytes.Equal(got, want) {
			t.Fatalf("writer differs from the reference on %+v:\n got %q\nwant %q", e, got, want)
		}
		agreeOnInput(t, got)
		if int(kind) < len(kindNames) && utf8.ValidString(label) {
			back, err := ReadJSONL(bytes.NewReader(got))
			if err != nil || len(back) != 1 || back[0] != e {
				t.Fatalf("round trip of %+v through %q: %+v, %v", e, got, back, err)
			}
		}
	})
}

// TestJSONLFallbackEdges walks both directions of the codec across the
// boundary between fast path and encoding/json with hand-picked values;
// the fuzz corpus under testdata/fuzz covers the same ground as inputs.
func TestJSONLFallbackEdges(t *testing.T) {
	labels := []string{"", "admit", "a b/c-d_e.f:g", `q"uote`, `back\slash`, "<lt", "gt>", "a&b",
		"tab\there", "nl\nhere", "del\x7f", "é", "\u2028", "bad\xffutf8", "\x00"}
	ints := []int64{0, 1, -1, 9, 10, 999999999999999999, 1000000000000000000, math.MaxInt64, math.MinInt64}
	var events []Event
	for _, l := range labels {
		events = append(events, Event{Kind: KindCPUCharge, Label: l, Chip: -1})
	}
	for _, v := range ints {
		events = append(events, Event{
			Time: sim.Time(v), Kind: KindTxnExecuted, Channel: int(v), OpID: uint64(v), TxnID: math.MaxUint64,
			Chip: int(-v), Dur: sim.Duration(v), Start: sim.Time(v), End: sim.Time(-v), Depth: int(v),
			Cycles: v, Bytes: int(v), Err: v%2 == 0,
		})
	}
	events = append(events, Event{Kind: Kind(200)}) // writes "unknown", which no reader accepts
	var all []byte
	for _, e := range events {
		got, want := encode(t, e), refEncode(t, e)
		if !bytes.Equal(got, want) {
			t.Errorf("writer differs from the reference on %+v:\n got %q\nwant %q", e, got, want)
		}
		agreeOnInput(t, got)
		all = append(all, got...)
	}
	agreeOnInput(t, all)

	// Anything the scanner refuses is refused the same way.
	long := `{"t":1,"kind":"cpu-charge","label":"` + strings.Repeat("x", 1<<20) + `"}`
	agreeOnInput(t, []byte("{\"t\":1,\"kind\":\"op-resumed\"}\n"+long+"\n"))
	if _, err := ReadJSONL(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "line 1: bufio.Scanner: token too long") {
		t.Errorf("over-long line: %v", err)
	}
}

// canonicalTrace is n events cycling through sampleStream, encoded.
func canonicalTrace(t testing.TB, n int) (events []Event, raw []byte) {
	sample := sampleStream()
	for i := 0; i < n; i++ {
		e := sample[i%len(sample)]
		e.Time += sim.Time(i)
		events = append(events, e)
	}
	return events, encode(t, events...)
}

func TestAllocGateJSONLWriter(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	events, _ := canonicalTrace(t, 1000)
	w := NewJSONLWriter(io.Discard)
	w.Event(events[0]) // the scratch line grows once
	if got := testing.AllocsPerRun(10, func() {
		for _, e := range events {
			w.Event(e)
		}
	}); got != 0 {
		t.Errorf("JSONLWriter.Event allocates %.0f times per %d plain-label events, want 0", got, len(events))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocGateReadJSONL(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 10_000
	events, raw := canonicalTrace(t, n)
	labels := map[string]bool{}
	for _, e := range events {
		labels[e.Label] = true
	}
	rd := bytes.NewReader(raw)
	got := testing.AllocsPerRun(5, func() {
		rd.Reset(raw)
		back, err := ReadJSONL(rd)
		if err != nil || len(back) != n {
			t.Fatalf("decoded %d events, %v", len(back), err)
		}
	})
	// One per chunk, one per distinct label, and a constant: the
	// scanner and its buffer, the label table, the chunk list's growth
	// and the flat slice Events() returns.
	limit := float64((n+bufferChunk-1)/bufferChunk + len(labels) + 16)
	if got > limit || got/n >= 0.01 {
		t.Errorf("ReadJSONL allocates %.0f times for %d canonical lines, want ≤ %.0f", got, n, limit)
	}
}

func BenchmarkJSONLWriter(b *testing.B) {
	events, _ := canonicalTrace(b, 1024)
	w := NewJSONLWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Event(events[i%len(events)])
	}
}

func BenchmarkReadJSONL(b *testing.B) {
	const n = 20_000 // many chunks, so the flatten in Events() is paid too
	_, raw := canonicalTrace(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		if _, err := ReadJSONL(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferEvent(b *testing.B) {
	events, _ := canonicalTrace(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	var buf Buffer
	for i := 0; i < b.N; i++ {
		if i%(64*bufferChunk) == 0 {
			buf = Buffer{} // a trace-sized buffer, however large b.N gets
		}
		buf.Event(events[i%len(events)])
	}
}
