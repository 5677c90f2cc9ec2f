package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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
		if raw := bytes.TrimSpace(line); parseCanonical(raw, &e, &labelCache{}) {
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
			Time: sim.Time(at), Kind: Kind(kind), Err: failed, Channel: int16(ch), OpID: op, TxnID: txn,
			Chip: int16(chip), Dur: sim.Duration(dur), Start: sim.Time(start), End: sim.Time(end),
			Depth: int32(depth), Cycles: cycles, Bytes: int32(nbytes), Label: label,
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
			Time: sim.Time(v), Kind: KindTxnExecuted, Channel: int16(v), OpID: uint64(v), TxnID: math.MaxUint64,
			Chip: int16(-v), Dur: sim.Duration(v), Start: sim.Time(v), End: sim.Time(-v), Depth: int32(v),
			Cycles: v, Bytes: int32(v), Err: v%2 == 0,
		})
	}
	// The narrow fields at the ends of their ranges.
	for _, v := range []int16{math.MinInt16, math.MinInt16 + 1, math.MaxInt16 - 1, math.MaxInt16} {
		events = append(events, Event{Kind: KindTxnEnqueued, Channel: v, Chip: -v - 1, Depth: 1})
	}
	for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		events = append(events, Event{Kind: KindHWInstr, Chip: -1, Depth: v, Bytes: -v - 1})
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

	// One past each narrow field's range: encoding/json refuses the
	// line, and so must the fast path rather than truncate the value.
	for _, line := range outOfRangeLines {
		agreeOnInput(t, []byte(line))
		mid := "{\"t\":1,\"kind\":\"op-resumed\"}\n" + line + "{\"t\":2,\"kind\":\"op-resumed\"}\n"
		agreeOnInput(t, []byte(mid))
		got, err := ReadJSONL(strings.NewReader(mid))
		if len(got) != 1 || err == nil || !strings.Contains(err.Error(), "line 2: json: cannot unmarshal number") {
			t.Errorf("out-of-range line %q: %d events, %v", line, len(got), err)
		}
	}

	// Anything the scanner refuses is refused the same way.
	long := `{"t":1,"kind":"cpu-charge","label":"` + strings.Repeat("x", 1<<20) + `"}`
	agreeOnInput(t, []byte("{\"t\":1,\"kind\":\"op-resumed\"}\n"+long+"\n"))
	if _, err := ReadJSONL(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "line 1: bufio.Scanner: token too long") {
		t.Errorf("over-long line: %v", err)
	}
}

// outOfRangeLines are canonical lines but for one narrow field one past
// its range; testdata/fuzz/FuzzReadJSONL carries them as seeds.
var outOfRangeLines = []string{
	"{\"t\":1,\"kind\":\"txn-enqueued\",\"chip\":32768}\n",
	"{\"t\":1,\"kind\":\"txn-enqueued\",\"ch\":-32769}\n",
	"{\"t\":1,\"kind\":\"txn-enqueued\",\"depth\":2147483648}\n",
	"{\"t\":1,\"kind\":\"hw-instr\",\"bytes\":-2147483649}\n",
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
	const n = 100_000 // 98 fixed 1024-event chunks; 10 growing ones
	events, raw := canonicalTrace(t, n)
	labels := map[string]bool{}
	for _, e := range events {
		labels[e.Label] = true
	}
	// The events slice, one string per distinct label, and a constant:
	// the label table's header and slot group, and one to spare for the
	// runtime. A reader other than a *bytes.Buffer adds the one slice
	// its input is read into. The bound no longer grows with the trace.
	const table = 3
	for _, tc := range []struct {
		name   string
		reader func() io.Reader
		reads  int
	}{
		{"*bytes.Buffer", func() io.Reader { return bytes.NewBuffer(raw) }, 0},
		{"*bytes.Reader", func() io.Reader { return bytes.NewReader(raw) }, 1},
	} {
		readers := make([]io.Reader, 6)
		run := 0
		for i := range readers {
			readers[i] = tc.reader()
		}
		got := testing.AllocsPerRun(5, func() {
			back, err := ReadJSONL(readers[run])
			run++
			if err != nil || len(back) != n {
				t.Fatalf("decoded %d events, %v", len(back), err)
			}
		})
		if limit := float64(1 + tc.reads + len(labels) + table); got > limit {
			t.Errorf("ReadJSONL from a %s allocates %.0f times for %d canonical lines, want ≤ %.0f", tc.name, got, n, limit)
		}
	}
}

// TestReadJSONLReaders: one input, one answer. The same bytes go through
// a *bytes.Buffer (parsed where it lies, and drained), a bytes.Reader
// (read once into a slice of its Len), readers that hand over one byte
// per call or their last bytes together with io.EOF (read to the end),
// and a file (sized by Stat); each gives the reference's events and
// error over a bytes.Reader. Only there does the reference itself
// depend on its reader: a bufio.Scanner refuses a last line of exactly
// 2²⁰ bytes without '\n' unless the read that filled its buffer also
// reported io.EOF.
func TestReadJSONLReaders(t *testing.T) {
	_, raw := canonicalTrace(t, 40)
	trace := string(raw)
	half := strings.Index(trace[len(trace)/2:], "\n") + len(trace)/2 + 1
	lineOf := func(n int) string { // a canonical line of exactly n bytes
		head := `{"t":1,"kind":"cpu-charge","label":"`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	inputs := map[string]string{
		"canonical":            trace,
		"empty":                "",
		"bad line mid-trace":   trace[:half] + `{"t":1,"kind":"nope"}` + "\n" + trace[half:],
		"deviant mid-trace":    trace[:half] + `{"t": 1, "kind": "op-resumed"}` + "\n" + trace[half:],
		"no newline at end":    strings.TrimSuffix(trace, "\n"),
		"crlf":                 strings.ReplaceAll(trace, "\n", "\r\n"),
		"blank lines":          "\n \n" + strings.ReplaceAll(trace, "\n", "\n\n\t\n"),
		"only a bad last line": `{"t":1,"kind":"op-resumed"`,
	}
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		inputs[fmt.Sprintf("line of %d bytes, then more", n)] = trace + lineOf(n) + "\n" + trace
		inputs[fmt.Sprintf("line of %d bytes at the end", n)] = trace + lineOf(n)
	}
	file := filepath.Join(t.TempDir(), "trace.jsonl")
	readers := []struct {
		name string
		open func(data []byte) io.Reader
	}{
		{"*bytes.Buffer", func(data []byte) io.Reader { return bytes.NewBuffer(bytes.Clone(data)) }},
		{"*bytes.Reader", func(data []byte) io.Reader { return bytes.NewReader(data) }},
		{"OneByteReader", func(data []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"DataErrReader", func(data []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) }},
		{"*os.File", func(data []byte) io.Reader {
			if err := os.WriteFile(file, data, 0o600); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
	}
	for name, in := range inputs {
		data := []byte(in)
		want, wantErr := refReadJSONL(bytes.NewReader(data))
		for _, rd := range readers {
			r := rd.open(data)
			got, err := ReadJSONL(r)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s via %s: %d events differ from the reference's %d", name, rd.name, len(got), len(want))
			}
			if errText(err) != errText(wantErr) {
				t.Errorf("%s via %s: error %s, want %s", name, rd.name, errText(err), errText(wantErr))
			}
			if b, ok := r.(*bytes.Buffer); ok && b.Len() != 0 {
				t.Errorf("%s: the *bytes.Buffer still holds %d bytes", name, b.Len())
			}
		}
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
	const n = 20_000 // a reader with Len, so the input is read into one sized slice
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
		if i%bufferChunkMax == 0 {
			buf = Buffer{} // a trace-sized buffer, however large b.N gets
		}
		buf.Event(events[i%len(events)])
	}
}

// TestDigitWords holds the word-at-a-time digit scan to strconv on
// every digit-run length and every byte that can end one.
func TestDigitWords(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for stop := 0; stop < 256; stop++ {
			if n < 8 && byte(stop)-'0' <= 9 {
				continue
			}
			word := []byte("98765432")[:n]
			word = append(word, byte(stop), 0xff, 0xfa, '5', '5', '5', '5', '5')[:8]
			w := binary.LittleEndian.Uint64(word)
			if got := digitRun(w); got != n {
				t.Fatalf("digitRun(%q) = %d, want %d", word, got, n)
			}
			want, _ := strconv.ParseUint("0"+string(word[:n]), 10, 64)
			if got := leadingDigits(w, n); got != want {
				t.Fatalf("leadingDigits(%q, %d) = %d, want %d", word, n, got, want)
			}
		}
	}
}
