package pagebuf

import (
	"sync"
	"testing"
	"unsafe"
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

func TestPoolRecyclesStorage(t *testing.T) {
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

// TestPoolReusesLIFO checks the free list's order: the page released
// last is the next one handed out, so a LUN's working set stays warm.
func TestPoolReusesLIFO(t *testing.T) {
	p := NewPool(64)
	bufs := make([]*Buf, 5)
	for i := range bufs {
		bufs[i] = p.Get()
	}
	for _, i := range []int{1, 3, 0} {
		bufs[i].Release()
	}
	for _, i := range []int{0, 3, 1} {
		b := p.Get()
		if &b.Bytes()[0] != &bufs[i].data[0] {
			t.Fatalf("Get returned a page other than buffer %d, the last released", i)
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		b.Release()
	}
}

// TestPoolCarvesDisjointCappedPages carves several slabs' worth of pages
// and checks that every payload is Size() long with cap == Size() (an
// append cannot reach the next page), that no two payloads overlap, and
// that slabs grow from one page up to the byte cap: 576 B pages come 28
// to a 16 KiB slab, and pages over 16 KiB one per slab.
func TestPoolCarvesDisjointCappedPages(t *testing.T) {
	for _, tc := range []struct{ size, pages, maxSlab int }{
		{576, 200, 28},
		{18256, 6, 1},
		{64, 1000, 256},
	} {
		p := NewPool(tc.size)
		type span struct{ lo, hi uintptr }
		spans := make([]span, 0, tc.pages)
		bufs := make([]*Buf, tc.pages)
		var slabs []int // pages per slab, in carving order
		for i := range bufs {
			fresh := len(p.slab) == 0
			b := p.Get()
			if fresh {
				slabs = append(slabs, len(p.slab)+1)
			}
			bufs[i] = b
			d := b.Bytes()
			if len(d) != tc.size || cap(d) != tc.size {
				t.Fatalf("size %d: page %d has len %d cap %d", tc.size, i, len(d), cap(d))
			}
			lo := uintptr(unsafe.Pointer(&d[0]))
			for _, s := range spans {
				if lo < s.hi && s.lo < lo+uintptr(tc.size) {
					t.Fatalf("size %d: page %d overlaps an earlier page", tc.size, i)
				}
			}
			spans = append(spans, span{lo, lo + uintptr(tc.size)})
		}
		want := 1
		for i, n := range slabs {
			if n != want {
				t.Fatalf("size %d: slab %d holds %d pages, want %d (slabs %v)", tc.size, i, n, want, slabs)
			}
			want = min(2*want, tc.maxSlab)
		}
		for _, b := range bufs {
			b.Release()
		}
	}
}

// TestPoolReleaseRacesGet releases pages on one goroutine while the
// owner keeps borrowing on another, as a sharded rig's host shard drops
// loans its channel shard made. Run under -race, the free list's lock
// must order every hand-over; no page may be handed out twice.
func TestPoolReleaseRacesGet(t *testing.T) {
	p := NewPool(64)
	const n = 2000
	lent := make(chan *Buf, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range lent {
			b.Release()
		}
	}()
	live := map[*Buf]bool{}
	for i := 0; i < n; i++ {
		b := p.Get()
		if live[b] {
			t.Fatal("a page with a live reference was handed out again")
		}
		b.Bytes()[0] = byte(i)
		if i%2 == 0 {
			lent <- b
			continue
		}
		live[b] = true
		if i%3 == 0 {
			for k := range live {
				delete(live, k)
				k.Release()
				break
			}
		}
	}
	close(lent)
	wg.Wait()
	for b := range live {
		b.Release()
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
