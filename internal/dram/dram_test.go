package dram

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pagebuf"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestWindowBounds(t *testing.T) {
	b := New(100)
	if _, err := b.Window(0, 100); err != nil {
		t.Errorf("full window rejected: %v", err)
	}
	bad := [][2]int{{-1, 10}, {0, 101}, {95, 10}, {0, -1}}
	for _, c := range bad {
		if _, err := b.Window(c[0], c[1]); err == nil {
			t.Errorf("window [%d,%d) accepted", c[0], c[0]+c[1])
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	b := New(64)
	data := []byte("hello, flash")
	if err := b.Write(10, data); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(10, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q", got)
	}
	// Read returns a copy, not an alias.
	got[0] = 'X'
	again, _ := b.Read(10, 1)
	if again[0] != 'h' {
		t.Error("Read returned an aliased slice")
	}
}

func TestWindowIsAliased(t *testing.T) {
	b := New(16)
	w, err := b.Window(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 0xAB
	got, _ := b.Read(4, 1)
	if got[0] != 0xAB {
		t.Error("Window is not a live view")
	}
}

// Property: writes to disjoint regions do not interfere.
func TestDisjointWritesProperty(t *testing.T) {
	f := func(x, y byte) bool {
		b := New(32)
		if err := b.Write(0, bytes.Repeat([]byte{x}, 16)); err != nil {
			return false
		}
		if err := b.Write(16, bytes.Repeat([]byte{y}, 16)); err != nil {
			return false
		}
		lo, _ := b.Read(0, 16)
		hi, _ := b.Read(16, 16)
		return bytes.Equal(lo, bytes.Repeat([]byte{x}, 16)) &&
			bytes.Equal(hi, bytes.Repeat([]byte{y}, 16))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLoansConcurrentSlots drives one Buffer from several goroutines the
// way a sharded rig's channel shards do, each lending, re-lending and
// reading back its own slot while its pages are replaced under the
// loans. Run under -race it checks the loan table's locking; in any
// build each slot must read the page last lent to it.
func TestLoansConcurrentSlots(t *testing.T) {
	const slots, page, rounds = 4, 64, 200
	b := New(slots * page)
	pool := pagebuf.NewPool(page)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := pool.Get()
				for i := range src.Bytes() {
					src.Bytes()[i] = byte(s*rounds + r)
				}
				if err := b.Lend(s*page, src, page); err != nil {
					t.Error(err)
					return
				}
				src.Release() // the array drops the page; the loan keeps it
				if r%3 == 0 {
					w, err := b.Window(s*page, page)
					if err != nil || w[0] != byte(s*rounds+r) || w[page-1] != byte(s*rounds+r) {
						t.Errorf("slot %d round %d: window %v, err %v", s, r, w[:1], err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}
