package dram

import (
	"runtime"
	"testing"

	"repro/internal/pagebuf"
)

// TestAllocGateDRAMRoundTrip is the allocation-regression gate for the
// staging buffer: a Write, a Window over it, and one lend/materialize
// cycle (a page lent to the slot, re-lent over itself, then read through
// a Window) must all be allocation-free once the loan table has held its
// peak. The zero-copy data path depends on it — every simulated page
// crosses this buffer twice.
func TestAllocGateDRAMRoundTrip(t *testing.T) {
	b := New(1 << 16)
	pool := pagebuf.NewPool(4096)
	src := pool.Get()
	defer src.Release()
	page := src.Bytes()
	for i := range page {
		page[i] = byte(i)
	}
	cycle := func() {
		if err := b.Write(128, page); err != nil {
			t.Fatal(err)
		}
		if w, err := b.Window(128, 4096); err != nil || w[4095] != page[4095] {
			t.Fatalf("window after write: %v", err)
		}
		if err := b.Lend(8192, src, 4096); err != nil {
			t.Fatal(err)
		}
		if err := b.Lend(8192, src, 4096); err != nil {
			t.Fatal(err)
		}
		w, err := b.Window(8192, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if w[0] != page[0] || w[4095] != page[4095] {
			t.Fatal("materialized loan mismatch")
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Errorf("DRAM lend cycle allocated %.1f objects, want 0", avg)
	}
}

// TestLendWithoutWindowLeavesBufferUnbacked: the backing is made at the
// first touch, so slots that are only lent pages, and re-lent over them
// (which drops each earlier loan's reference), cost no backing. The
// buffer is 64 MiB, so a backing could not hide in the count; the first
// Window then makes it, which shows the count would see it.
func TestLendWithoutWindowLeavesBufferUnbacked(t *testing.T) {
	const size = 64 << 20
	pool := pagebuf.NewPool(4096)
	pages := [2]*pagebuf.Buf{pool.Get(), pool.Get()}
	for i, p := range pages {
		clear(p.Bytes())
		p.Bytes()[0] = byte(i + 1)
	}
	measure := func(fn func()) uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	var b *Buffer
	lent := measure(func() {
		b = New(size)
		for i := 0; i < 64; i++ {
			for slot := 0; slot < 16; slot++ {
				if err := b.Lend(slot*4096, pages[(i+slot)%2], 4096); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if lent >= size/16 {
		t.Errorf("New and 1,024 loans allocated %d bytes of a %d-byte buffer, want no backing", lent, size)
	}
	var w []byte
	touched := measure(func() {
		var err error
		if w, err = b.Window(15*4096, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if touched < size {
		t.Errorf("first Window allocated %d bytes, want the %d-byte backing", touched, size)
	}
	if want := pages[(63+15)%2].Bytes(); w[0] != want[0] || w[4095] != want[4095] {
		t.Errorf("window reads %#x…%#x, want the last page lent there", w[0], w[4095])
	}
	for _, p := range pages {
		p.Release()
	}
}
