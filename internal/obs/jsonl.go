package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
// the errors reported are those of encoding/json throughout.
type jsonlEvent struct {
	Time    sim.Time     `json:"t"`
	Kind    string       `json:"kind"`
	Channel int          `json:"ch,omitempty"`
	OpID    uint64       `json:"op,omitempty"`
	TxnID   uint64       `json:"txn,omitempty"`
	Chip    int          `json:"chip,omitempty"`
	Dur     sim.Duration `json:"dur,omitempty"`
	Start   sim.Time     `json:"start,omitempty"`
	End     sim.Time     `json:"end,omitempty"`
	Depth   int          `json:"depth,omitempty"`
	Cycles  int64        `json:"cycles,omitempty"`
	Bytes   int          `json:"bytes,omitempty"`
	Err     bool         `json:"err,omitempty"`
	Label   string       `json:"label,omitempty"`
}

// plainByte reports whether c stands for itself inside a JSON string as
// encoding/json writes it: printable ASCII other than the quote, the
// backslash and the three characters its HTML-safe mode escapes.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

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

// ReadJSONL decodes a JSONL trace back into events — the inverse of
// JSONLWriter, used for offline replay into a Metrics registry, by the
// babolbench analyze subcommand, and in round-trip tests. Parse errors
// name the 1-based line they occurred on, so a corrupted or truncated
// trace points at itself; unknown kinds are an error so schema drift is
// loud. Blank lines are skipped.
//
// A canonical line (see jsonlEvent) is decoded in place with its label
// interned, so a trace the writer produced costs no allocation per
// event; a line that deviates from canonical in any way is decoded by
// encoding/json.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out Buffer
	labels := make(map[string]string)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if !parseCanonical(raw, &e, labels) {
			var err error
			if e, err = parseJSON(raw); err != nil {
				return out.Events(), fmt.Errorf("obs: line %d: %w", line, err)
			}
		}
		out.Event(e)
	}
	if err := sc.Err(); err != nil {
		return out.Events(), fmt.Errorf("obs: line %d: %w", line+1, err)
	}
	return out.Events(), nil
}

// parseJSON decodes one line with encoding/json: the definition of what
// ReadJSONL accepts.
func parseJSON(raw []byte) (Event, error) {
	var je jsonlEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return Event{}, err
	}
	k, ok := KindFromString(je.Kind)
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

// parseCanonical decodes raw into e when raw is a canonical line —
// byte for byte what JSONLWriter's fast path writes for some event —
// and reports false, with e in an unspecified state, for anything else.
// labels interns label strings across the lines of one trace.
func parseCanonical(raw []byte, e *Event, labels map[string]string) bool {
	c := cursor{p: raw}
	if !c.lit(`{"t":`) {
		return false
	}
	e.Time = sim.Time(c.int64(0))
	if !c.lit(`,"kind":"`) {
		return false
	}
	name := c.plain()
	kind, ok := kindFromBytes(name)
	if !ok {
		return false
	}
	e.Kind = kind
	if c.lit(`,"ch":`) {
		e.Channel = c.int()
	}
	if c.lit(`,"op":`) {
		e.OpID = c.digits(1, 1<<64-1)
	}
	if c.lit(`,"txn":`) {
		e.TxnID = c.digits(1, 1<<64-1)
	}
	if c.lit(`,"chip":`) {
		e.Chip = c.int()
	}
	if c.lit(`,"dur":`) {
		e.Dur = sim.Duration(c.int64(1))
	}
	if c.lit(`,"start":`) {
		e.Start = sim.Time(c.int64(1))
	}
	if c.lit(`,"end":`) {
		e.End = sim.Time(c.int64(1))
	}
	if c.lit(`,"depth":`) {
		e.Depth = c.int()
	}
	if c.lit(`,"cycles":`) {
		e.Cycles = c.int64(1)
	}
	if c.lit(`,"bytes":`) {
		e.Bytes = c.int()
	}
	e.Err = c.lit(`,"err":true`)
	if c.lit(`,"label":"`) {
		label := c.plain()
		if len(label) == 0 {
			return false
		}
		s, ok := labels[string(label)]
		if !ok {
			s = string(label)
			labels[s] = s
		}
		e.Label = s
	}
	return c.lit("}") && len(c.p) == 0 && !c.bad
}

// kindFromBytes is KindFromString on a byte slice, without the
// conversion's allocation.
func kindFromBytes(b []byte) (Kind, bool) {
	for k, name := range kindNames {
		if string(b) == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// cursor walks one line for parseCanonical. A malformed number or
// string sets bad, which the caller checks once at the end.
type cursor struct {
	p   []byte
	bad bool
}

// lit consumes s if the input continues with it.
func (c *cursor) lit(s string) bool {
	// The last byte first: it settles most mismatches between the
	// optional keys without a call.
	if n := len(s) - 1; len(c.p) <= n || c.p[n] != s[n] || string(c.p[:n]) != s[:n] {
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

// int64 consumes a canonical signed decimal whose magnitude is at least
// min (0 or 1: omitempty fields never carry a zero, and "-0" is never
// written).
func (c *cursor) int64(min uint64) int64 {
	if c.lit("-") {
		return int64(-c.digits(1, 1<<63))
	}
	return int64(c.digits(min, 1<<63-1))
}

// int is int64 for the int-typed fields, all of them omitempty.
func (c *cursor) int() int {
	v := c.int64(1)
	if int64(int(v)) != v {
		c.bad = true
	}
	return int(v)
}
