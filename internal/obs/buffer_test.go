package obs

import (
	"reflect"
	"testing"
)

// raceDetectorEnabled is set by race_test.go under -race.
var raceDetectorEnabled = false

func TestBufferRecordsAndReplaysInOrder(t *testing.T) {
	var b Buffer
	for i := 0; i < 5; i++ {
		b.Event(Event{OpID: uint64(i), Kind: KindOpFinished})
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	var got []uint64
	b.ReplayInto(Func(func(e Event) { got = append(got, e.OpID) }))
	if len(got) != 5 {
		t.Fatalf("replayed %d events", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("replay out of order: %v", got)
		}
	}
	// Replay is non-destructive.
	if b.Len() != 5 {
		t.Fatalf("replay consumed the buffer: Len = %d", b.Len())
	}
}

func TestBufferReplayIntoNilIsNoOp(t *testing.T) {
	var b Buffer
	b.Event(Event{})
	b.ReplayInto(nil) // must not panic
}

func TestBufferReset(t *testing.T) {
	var b Buffer
	b.Event(Event{})
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Reset", b.Len())
	}
	b.Event(Event{OpID: 9})
	if b.Len() != 1 || b.Events()[0].OpID != 9 {
		t.Fatal("buffer unusable after Reset")
	}
}

// TestBufferChunkBoundaries holds the chunked store to the contract of
// the plain slice it replaced, at every size where a chunk fills, and
// through the call patterns its users rely on: ssd's shard-trace merge
// calls Events() per step and Reset() per Run.
func TestBufferChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, bufferChunk - 1, bufferChunk, bufferChunk + 1, 3*bufferChunk + 7} {
		var b Buffer
		var want []Event
		add := func(k int) {
			for i := 0; i < k; i++ {
				e := Event{OpID: uint64(len(want) + 1), Kind: KindOpFinished}
				b.Event(e)
				want = append(want, e)
			}
		}
		check := func(when string) {
			t.Helper()
			if b.Len() != len(want) {
				t.Fatalf("n=%d %s: Len = %d, want %d", n, when, b.Len(), len(want))
			}
			var replayed []Event
			b.ReplayInto(Func(func(e Event) { replayed = append(replayed, e) }))
			if !reflect.DeepEqual(replayed, want) {
				t.Fatalf("n=%d %s: ReplayInto differs from the plain slice", n, when)
			}
			for call := 1; call <= 2; call++ {
				if got := b.Events(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("n=%d %s: Events() call %d differs from the plain slice", n, when, call)
				}
			}
		}
		add(n)
		check("after fill")
		add(bufferChunk + 3) // appended after Events() flattened the store
		check("after appending to a flattened buffer")
		b.Reset()
		want = nil
		check("after Reset")
		add(n + 2)
		check("after refill")
	}
}

// The trace path's allocation gates (run by CI's -run AllocGate sweep):
// a Buffer pays one allocation per chunk and nothing per event, and one
// that is installed but never fed pays nothing at all.
func TestAllocGateBuffer(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const chunks = 8
	perFill := testing.AllocsPerRun(10, func() {
		var b Buffer
		for i := 0; i < chunks*bufferChunk; i++ {
			b.Event(Event{OpID: uint64(i), Label: "submit"})
		}
		if b.Len() != chunks*bufferChunk {
			t.Fatal("events lost")
		}
	})
	// chunks chunk allocations plus the growth of the chunk list.
	if limit := float64(chunks + 4); perFill > limit {
		t.Errorf("filling %d chunks allocates %.0f times, want ≤ %.0f (one per chunk)", chunks, perFill, limit)
	}
	if perEvent := perFill / (chunks * bufferChunk); perEvent >= 0.01 {
		t.Errorf("Buffer.Event allocates %.4f times per event, want < 0.01", perEvent)
	}
	if idle := testing.AllocsPerRun(100, func() {
		var b Buffer
		b.ReplayInto(Func(func(Event) {}))
		if b.Len() != 0 || len(b.Events()) != 0 {
			t.Fatal("idle buffer holds events")
		}
		b.Reset()
	}); idle != 0 {
		t.Errorf("a Buffer that receives no event allocates %.0f times, want 0", idle)
	}
}
