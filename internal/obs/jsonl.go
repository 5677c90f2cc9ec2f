package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"strconv"

	"repro/internal/sim"
)

// jsonlEvent is the wire form of an Event: the kind travels as its
// string name so the stream is self-describing and stable across
// reorderings of the Kind enum, and zero fields are omitted to keep
// traces compact.
//
// encoding/json over this struct defines the format. The writer and the
// reader below each carry a hand-rolled fast path for the common case —
// the canonical line: these keys in this order, each at most once, no
// whitespace, integers in canonical decimal, zero fields omitted, a
// known kind, and a label that needs no escaping — and hand everything
// else to encoding/json, so the bytes written, the inputs accepted and
// the errors reported are those of encoding/json throughout. The narrow
// fields have Event's types, so encoding/json refuses a value out of
// their range, and so does the fast path.
type jsonlEvent struct {
	Time    sim.Time     `json:"t"`
	Kind    string       `json:"kind"`
	Channel int16        `json:"ch,omitempty"`
	OpID    uint64       `json:"op,omitempty"`
	TxnID   uint64       `json:"txn,omitempty"`
	Chip    int16        `json:"chip,omitempty"`
	Dur     sim.Duration `json:"dur,omitempty"`
	Start   sim.Time     `json:"start,omitempty"`
	End     sim.Time     `json:"end,omitempty"`
	Depth   int32        `json:"depth,omitempty"`
	Cycles  int64        `json:"cycles,omitempty"`
	Bytes   int32        `json:"bytes,omitempty"`
	Err     bool         `json:"err,omitempty"`
	Label   string       `json:"label,omitempty"`
}

// plainByte reports whether c stands for itself inside a JSON string as
// encoding/json writes it: printable ASCII other than the quote, the
// backslash and the three characters its HTML-safe mode escapes.
func plainByte(c byte) bool { return plainBytes[c] }

var plainBytes = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// JSONLWriter is a Tracer persisting the event stream as one JSON
// object per line — the `babolbench -trace out.jsonl` sink. Writes are
// buffered; call Flush (or check Err) when the run ends. Encoding
// errors are sticky: the first one is retained and later events are
// dropped, so the hot path never has to handle an error return.
type JSONLWriter struct {
	w    *bufio.Writer
	enc  *json.Encoder
	line []byte // the fast path's reused scratch line
	err  error
}

// NewJSONLWriter wraps w in a buffered JSONL event sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Event implements Tracer. An event whose label needs no escaping is
// appended to the scratch line field by field and does not allocate;
// any other goes through encoding/json.
func (j *JSONLWriter) Event(e Event) {
	if j.err != nil {
		return
	}
	if !plainString(e.Label) {
		j.err = j.enc.Encode(jsonlEvent{
			Time: e.Time, Kind: e.Kind.String(), Channel: e.Channel,
			OpID: e.OpID, TxnID: e.TxnID, Chip: e.Chip,
			Dur: e.Dur, Start: e.Start, End: e.End, Depth: e.Depth,
			Cycles: e.Cycles, Bytes: e.Bytes, Err: e.Err, Label: e.Label,
		})
		return
	}
	b := append(j.line[:0], `{"t":`...)
	b = strconv.AppendInt(b, int64(e.Time), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	b = appendInt(b, `,"ch":`, int64(e.Channel))
	b = appendUint(b, `,"op":`, e.OpID)
	b = appendUint(b, `,"txn":`, e.TxnID)
	b = appendInt(b, `,"chip":`, int64(e.Chip))
	b = appendInt(b, `,"dur":`, int64(e.Dur))
	b = appendInt(b, `,"start":`, int64(e.Start))
	b = appendInt(b, `,"end":`, int64(e.End))
	b = appendInt(b, `,"depth":`, int64(e.Depth))
	b = appendInt(b, `,"cycles":`, e.Cycles)
	b = appendInt(b, `,"bytes":`, int64(e.Bytes))
	if e.Err {
		b = append(b, `,"err":true`...)
	}
	if e.Label != "" {
		b = append(b, `,"label":"`...)
		b = append(b, e.Label...)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	j.line = b
	_, j.err = j.w.Write(b)
}

func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// Flush drains the buffer and returns the first error seen, if any.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Err reports the first write or encoding error, if any.
func (j *JSONLWriter) Err() error { return j.err }

// maxLine bounds a line, its '\n' included: the buffer cap of the
// bufio.Scanner this reader replaced, whose errors it keeps.
const maxLine = 1 << 20

// ReadJSONL decodes a JSONL trace back into events — the inverse of
// JSONLWriter, used for offline replay into a Metrics registry, by the
// babolbench analyze subcommand, and in round-trip tests. Parse errors
// name the 1-based line they occurred on, so a corrupted or truncated
// trace points at itself; unknown kinds are an error so schema drift is
// loud. Blank lines are skipped, and a line of 1 MiB or more is
// bufio.ErrTooLong.
//
// The input is read once (a *bytes.Buffer is drained without a copy)
// and the events are decoded into one slice sized by its line count. A
// canonical line (see jsonlEvent) is decoded in place with its label
// interned, so a trace the writer produced costs no allocation per
// event; a line that deviates from canonical in any way is decoded by
// encoding/json. Labels never alias the input.
func ReadJSONL(r io.Reader) ([]Event, error) {
	data, readErr := readInput(r)
	var out []Event
	var labels labelCache
	line := 0
	for len(data) > 0 {
		raw, rest, _ := bytes.Cut(data, []byte{'\n'})
		if len(raw) >= maxLine {
			return out, fmt.Errorf("obs: line %d: %w", line+1, bufio.ErrTooLong)
		}
		data = rest
		line++
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		if out == nil {
			out = make([]Event, 0, 1+lineCount(rest))
		}
		out = append(out, Event{})
		e := &out[len(out)-1]
		if !parseCanonical(raw, e, &labels) {
			var err error
			if *e, err = parseJSON(raw); err != nil {
				if out = out[:len(out)-1]; len(out) == 0 {
					out = nil // no events is a nil slice, whatever was allocated
				}
				return out, fmt.Errorf("obs: line %d: %w", line, err)
			}
		}
	}
	if readErr != nil {
		return out, fmt.Errorf("obs: line %d: %w", line+1, readErr)
	}
	return out, nil
}

// lineCount is the number of lines in data, a last one without '\n'
// included.
func lineCount(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// readInput returns everything r holds. A *bytes.Buffer hands over its
// unread bytes without a copy, draining itself as a Read would; any
// other reader is read into one slice, sized up front when the reader
// reports its length. Like the bufio.Scanner ReadJSONL replaced, it
// gives up on a reader that returns neither data nor an error 100 times
// in a row.
func readInput(r io.Reader) ([]byte, error) {
	size := 512
	switch r := r.(type) {
	case *bytes.Buffer:
		return r.Next(r.Len()), nil
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	b := make([]byte, 0, size+1) // +1: room for the read that reports EOF
	for empty := 0; ; {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		case n > 0:
			empty = 0
		case empty == 99:
			return b, io.ErrNoProgress
		default:
			empty++
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// parseJSON decodes one line with encoding/json: the definition of what
// ReadJSONL accepts.
func parseJSON(raw []byte) (Event, error) {
	var je jsonlEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return Event{}, err
	}
	k, ok := kindOf(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", je.Kind)
	}
	return Event{
		Time: je.Time, Kind: k, Channel: je.Channel,
		OpID: je.OpID, TxnID: je.TxnID, Chip: je.Chip,
		Dur: je.Dur, Start: je.Start, End: je.End, Depth: je.Depth,
		Cycles: je.Cycles, Bytes: je.Bytes, Err: je.Err, Label: je.Label,
	}, nil
}

// The optional keys of a canonical line, numbered in wire order.
const (
	keyCh = iota + 1
	keyOp
	keyTxn
	keyChip
	keyDur
	keyStart
	keyEnd
	keyDepth
	keyCycles
	keyBytes
	keyErr
	keyLabel
)

// keyOf numbers an optional key; 0 is not one.
func keyOf(key []byte) int {
	switch string(key) {
	case "ch":
		return keyCh
	case "op":
		return keyOp
	case "txn":
		return keyTxn
	case "chip":
		return keyChip
	case "dur":
		return keyDur
	case "start":
		return keyStart
	case "end":
		return keyEnd
	case "depth":
		return keyDepth
	case "cycles":
		return keyCycles
	case "bytes":
		return keyBytes
	case "err":
		return keyErr
	case "label":
		return keyLabel
	}
	return 0
}

// parseCanonical decodes raw into e when raw is a canonical line —
// byte for byte what JSONLWriter's fast path writes for some event —
// and reports false, with e in an unspecified state, for anything else.
// e must start zeroed: the fields a line omits are left as they are.
// labels interns label strings across the lines of one trace.
func parseCanonical(raw []byte, e *Event, labels *labelCache) bool {
	c := cursor{p: raw}
	if !c.lit(`{"t":`) {
		return false
	}
	e.Time = sim.Time(c.int64(0))
	if !c.lit(`,"kind":"`) {
		return false
	}
	kind, ok := kindOf(c.plain())
	if !ok {
		return false
	}
	e.Kind = kind
	// Each optional key once, in wire order: read `,"key":` and switch.
	for last := 0; !c.bad && len(c.p) > 2 && c.p[0] == ',' && c.p[1] == '"'; {
		end := 2
		for end < len(c.p) && c.p[end] != '"' {
			end++
		}
		if end+1 >= len(c.p) || c.p[end+1] != ':' {
			return false
		}
		key := keyOf(c.p[2:end])
		if key <= last {
			return false
		}
		last = key
		c.p = c.p[end+2:]
		switch key {
		case keyCh:
			e.Channel = int16(c.narrow(16))
		case keyOp:
			e.OpID = c.digits(1, 1<<64-1)
		case keyTxn:
			e.TxnID = c.digits(1, 1<<64-1)
		case keyChip:
			e.Chip = int16(c.narrow(16))
		case keyDur:
			e.Dur = sim.Duration(c.int64(1))
		case keyStart:
			e.Start = sim.Time(c.int64(1))
		case keyEnd:
			e.End = sim.Time(c.int64(1))
		case keyDepth:
			e.Depth = int32(c.narrow(32))
		case keyCycles:
			e.Cycles = c.int64(1)
		case keyBytes:
			e.Bytes = int32(c.narrow(32))
		case keyErr:
			if !c.lit("true") {
				return false
			}
			e.Err = true
		case keyLabel:
			if !c.lit(`"`) {
				return false
			}
			label := c.plain()
			if len(label) == 0 {
				return false
			}
			e.Label = labels.intern(label)
		}
	}
	return c.lit("}") && len(c.p) == 0 && !c.bad
}

// labelCache interns the labels of one trace: a small direct-mapped
// cache of recent labels in front of a table of every label seen, so
// the handful a trace repeats cost a comparison and no map lookup.
type labelCache struct {
	recent [64]string
	all    map[string]string
}

func (lc *labelCache) intern(b []byte) string {
	slot := &lc.recent[(len(b)^int(b[0])^int(b[len(b)-1])<<1^int(b[len(b)/2])<<2)%len(lc.recent)]
	if *slot == string(b) {
		return *slot
	}
	s, ok := lc.all[string(b)]
	if !ok {
		if lc.all == nil {
			lc.all = make(map[string]string)
		}
		s = string(b)
		lc.all[s] = s
	}
	*slot = s
	return s
}

// cursor walks one line for parseCanonical. A malformed number or
// string sets bad, which the caller checks once at the end.
type cursor struct {
	p   []byte
	bad bool
}

// lit consumes s if the input continues with it.
func (c *cursor) lit(s string) bool {
	if len(c.p) < len(s) || string(c.p[:len(s)]) != s {
		return false
	}
	c.p = c.p[len(s):]
	return true
}

// plain consumes a string body of plain bytes and its closing quote,
// returning the body.
func (c *cursor) plain() []byte {
	i := 0
	for i < len(c.p) && plainByte(c.p[i]) {
		i++
	}
	if i == len(c.p) || c.p[i] != '"' {
		c.bad = true
		return nil
	}
	body := c.p[:i]
	c.p = c.p[i+1:]
	return body
}

// digits consumes a canonical decimal in [min, max]: digits only, no
// leading zero.
func (c *cursor) digits(min, max uint64) uint64 {
	var v uint64
	i := 0
	// Up to eight digits per step while that cannot overflow (16
	// digits) and eight bytes are left, then one at a time.
	for i <= 8 && len(c.p)-i >= 8 {
		w := binary.LittleEndian.Uint64(c.p[i:])
		n := digitRun(w)
		v = v*pow10[n] + leadingDigits(w, n)
		if i += n; n < 8 {
			break
		}
	}
	for ; i < len(c.p) && c.p[i]-'0' <= 9; i++ {
		d := uint64(c.p[i] - '0')
		// 18 digits cannot overflow; only longer runs pay for the check.
		if i >= 18 && v > (max-d)/10 {
			c.bad = true
			return 0
		}
		v = v*10 + d
	}
	if i == 0 || (c.p[0] == '0' && i > 1) || v < min {
		c.bad = true
	}
	c.p = c.p[i:]
	return v
}

var pow10 = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// digitRun is how many of the eight bytes of w, read little-endian (the
// first byte in the low one), are ASCII digits before the first that is
// not. A byte is a digit when its high nibble is 3 and adding 6 to it
// leaves that nibble 3; a carry out of a non-digit byte can only reach
// the bytes after it.
func digitRun(w uint64) int {
	const hi = 0xF0F0F0F0F0F0F0F0
	nonDigit := (w&hi | (w+0x0606060606060606)&hi>>4) ^ 0x3333333333333333
	return bits.TrailingZeros64(nonDigit) / 8
}

// leadingDigits is the value of the first n (≤ 8) bytes of w, which are
// ASCII digits: w's other bytes become leading '0's, and the eight are
// combined in pairs, then quads, then whole.
func leadingDigits(w uint64, n int) uint64 {
	w = w<<(64-8*n) | 0x3030303030303030>>(8*n)
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// int64 consumes a canonical signed decimal whose magnitude is at least
// min (0 or 1: omitempty fields never carry a zero, and "-0" is never
// written).
func (c *cursor) int64(min uint64) int64 {
	if c.lit("-") {
		return int64(-c.digits(1, 1<<63))
	}
	return int64(c.digits(min, 1<<63-1))
}

// narrow is int64 for a nonzero field of the given signed width: a
// value outside it is not canonical (the writer cannot produce it), so
// the line goes to encoding/json, which refuses it.
func (c *cursor) narrow(bits uint) int64 {
	v := c.int64(1)
	if v < -1<<(bits-1) || v >= 1<<(bits-1) {
		c.bad = true
	}
	return v
}
