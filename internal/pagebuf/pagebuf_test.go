package pagebuf

import (
	"testing"
)

func TestPoolHandsOutFullSizeBuffers(t *testing.T) {
	p := NewPool(512)
	if p.Size() != 512 {
		t.Fatalf("Size() = %d", p.Size())
	}
	b := p.Get()
	defer b.Release()
	if b.Len() != 512 || len(b.Bytes()) != 512 {
		t.Fatalf("buffer len = %d/%d, want 512", b.Len(), len(b.Bytes()))
	}
}

// raceDetectorEnabled is set by race_test.go under -race.
var raceDetectorEnabled = false

func TestPoolRecyclesStorage(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under the race detector")
	}
	p := NewPool(64)
	b := p.Get()
	first := &b.Bytes()[0]
	b.Release()
	// With no concurrent borrowers the very next Get must reuse the
	// released buffer's storage — that recycling is the pool's point.
	b2 := p.Get()
	defer b2.Release()
	if &b2.Bytes()[0] != first {
		t.Error("released buffer was not recycled by the next Get")
	}
}

func TestForSharesPoolsBySize(t *testing.T) {
	if For(4096) != For(4096) {
		t.Error("For returned distinct pools for one size")
	}
	if For(4096) == For(8192) {
		t.Error("For shared a pool across sizes")
	}
}

func TestNewPoolRejectsNonPositiveSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

// TestRetainKeepsStorage checks that a retained buffer is not recycled
// by its first Release: the next Get must hand out other storage.
func TestRetainKeepsStorage(t *testing.T) {
	p := NewPool(64)
	b := p.Get()
	b.Retain()
	b.Release()
	b2 := p.Get()
	if &b2.Bytes()[0] == &b.Bytes()[0] {
		t.Fatal("a buffer with a live reference was handed out again")
	}
	b2.Release()
	b.Release()
}

// TestAllocGatePagebuf is the allocation-regression gate for the arena
// itself: a warmed Get/Retain/Release cycle must not allocate. (Under bufdebug
// Release also poisons the payload, but poisoning writes into existing
// storage.)
func TestAllocGatePagebuf(t *testing.T) {
	p := NewPool(4096)
	p.Get().Release() // warm the pool
	avg := testing.AllocsPerRun(100, func() {
		b := p.Get()
		b.Bytes()[0] = 1
		b.Retain()
		b.Release()
		b.Release()
	})
	if avg > 0 {
		t.Errorf("warmed Get/Release allocated %.1f objects per cycle, want 0", avg)
	}
}
