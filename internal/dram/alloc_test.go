package dram

import (
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
