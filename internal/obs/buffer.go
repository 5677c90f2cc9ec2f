package obs

// bufferChunk is the number of events per storage chunk: large enough
// that the one allocation per chunk vanishes per event, small enough
// that a rig emitting a handful of events does not pay for megabytes.
const bufferChunk = 1024

// Buffer is a Tracer that records the event stream in memory, in
// emission order. It is the building block of the parallel experiment
// runner's trace discipline: every concurrently-running rig traces into
// its own Buffer (so no Tracer implementation ever sees concurrent
// calls), and the buffers are replayed into the shared sink in
// deterministic configuration order. The merged stream is therefore
// byte-identical to a serial run, regardless of worker count or
// completion order.
//
// Events are stored in fixed-size chunks allocated on first use, so an
// append never re-copies or re-zeroes what was recorded before it and a
// Buffer that sees no event allocates nothing.
//
// A Buffer is not safe for concurrent use by multiple goroutines — one
// rig, one Buffer.
type Buffer struct {
	// full holds the filled chunks in emission order; tail is the chunk
	// being filled.
	full [][]Event
	tail []Event
}

// Event implements Tracer.
func (b *Buffer) Event(e Event) {
	if len(b.tail) == cap(b.tail) {
		if len(b.tail) > 0 {
			b.full = append(b.full, b.tail)
		}
		b.tail = make([]Event, 0, bufferChunk)
	}
	b.tail = append(b.tail, e)
}

// Len reports the number of buffered events.
func (b *Buffer) Len() int {
	n := len(b.tail)
	for _, c := range b.full {
		n += len(c)
	}
	return n
}

// Events returns the buffered stream in emission order as one slice.
// The first call after the stream outgrew a chunk copies it into a flat
// slice, which then replaces the chunks as the buffer's storage, so
// repeated calls cost nothing. The slice is the buffer's backing store;
// callers must not append to it.
func (b *Buffer) Events() []Event {
	if len(b.full) > 0 {
		flat := make([]Event, 0, b.Len())
		for _, c := range b.full {
			flat = append(flat, c...)
		}
		b.full, b.tail = nil, append(flat, b.tail...)
	}
	return b.tail
}

// ReplayInto forwards the buffered stream to t in emission order. A nil
// t is a no-op, preserving the "nil means off" convention.
func (b *Buffer) ReplayInto(t Tracer) {
	if t == nil {
		return
	}
	for _, c := range b.full {
		for i := range c {
			t.Event(c[i])
		}
	}
	for i := range b.tail {
		t.Event(b.tail[i])
	}
}

// Reset drops the buffered events, retaining the current chunk (after
// Events, the whole flat slice) for reuse.
func (b *Buffer) Reset() { b.full, b.tail = nil, b.tail[:0] }
