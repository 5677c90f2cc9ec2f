package dram

import (
	"bytes"
	"testing"

	"repro/internal/pagebuf"
)

// Loan fuzz geometry: fuzzSlots page slots of fuzzSlot bytes, each
// staging a fuzzPage-byte page at its start, over fuzzRows stored pages.
const (
	fuzzPage  = 32
	fuzzSlot  = 40
	fuzzSlots = 4
	fuzzRows  = 3
	fuzzSize  = fuzzSlots * fuzzSlot
)

// FuzzLoan holds the loan table to a plain []byte that copies eagerly.
// The input is a program of 4-byte ops [op a b c] (op = op%8):
//
//	0 program row a with pattern b: a fresh page, the old one released
//	1 erase row a: its page released
//	2 lend row a to slot b: the whole page at the slot's start
//	3 lend row a's first 1+c%32 bytes at address b
//	4 check a Window at address b, c bytes, against the reference
//	5 check a Read at address b, c bytes
//	6 Write c bytes of pattern a at address b
//	7 write c bytes of pattern a through a Window at address b
//
// Program and erase model the LUN's array: the page a slot borrowed is
// released by its row while the slot still holds the loan, and the slot
// must go on reading the old bytes. Addresses and lengths wrap into the
// buffer; lending an erased row does nothing. The pages come from a
// private pool, so a page released too early is handed to the next
// program and the slot reads its pattern instead.
func FuzzLoan(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		b := New(fuzzSize)
		ref := make([]byte, fuzzSize)
		pool := pagebuf.NewPool(fuzzPage)
		var rows [fuzzRows]*pagebuf.Buf
		var want [fuzzRows][]byte
		span := func(addr, n byte) (int, int) {
			a := int(addr) % fuzzSize
			return a, int(n) % (fuzzSize - a + 1)
		}
		check := func(what string, a int, got []byte) {
			t.Helper()
			if !bytes.Equal(got, ref[a:a+len(got)]) {
				t.Fatalf("%s [%d,%d) = %x, eager copy holds %x", what, a, a+len(got), got, ref[a:a+len(got)])
			}
		}
		for ; len(prog) >= 4; prog = prog[4:] {
			op, x, y, z := prog[0]%8, prog[1], prog[2], prog[3]
			row := int(x) % fuzzRows
			switch op {
			case 0:
				page := pool.Get()
				fill(page.Bytes(), y)
				if rows[row] != nil {
					rows[row].Release()
				}
				rows[row], want[row] = page, append([]byte(nil), page.Bytes()...)
			case 1:
				if rows[row] != nil {
					rows[row].Release()
				}
				rows[row], want[row] = nil, nil
			case 2, 3:
				if rows[row] == nil {
					continue
				}
				a, n := int(y)%fuzzSlots*fuzzSlot, fuzzPage
				if op == 3 {
					n = 1 + int(z)%fuzzPage
					a = int(y) % (fuzzSize - n + 1)
				}
				if err := b.Lend(a, rows[row], n); err != nil {
					t.Fatal(err)
				}
				copy(ref[a:a+n], want[row])
			case 4:
				a, n := span(y, z)
				w, err := b.Window(a, n)
				if err != nil {
					t.Fatal(err)
				}
				check("Window", a, w)
			case 5:
				a, n := span(y, z)
				got, err := b.Read(a, n)
				if err != nil {
					t.Fatal(err)
				}
				check("Read", a, got)
			case 6:
				a, n := span(y, z)
				data := make([]byte, n)
				fill(data, x)
				if err := b.Write(a, data); err != nil {
					t.Fatal(err)
				}
				copy(ref[a:], data)
			case 7:
				a, n := span(y, z)
				w, err := b.Window(a, n)
				if err != nil {
					t.Fatal(err)
				}
				fill(w, x)
				copy(ref[a:], w)
			}
		}
		for i := range rows {
			if rows[i] != nil {
				rows[i].Release()
			}
		}
		all, err := b.Window(0, fuzzSize)
		if err != nil {
			t.Fatal(err)
		}
		check("final Window", 0, all)
	})
}

// fill writes pattern v into p: a distinct byte per offset, so a shifted
// or stale copy shows.
func fill(p []byte, v byte) {
	for i := range p {
		p[i] = v ^ byte(i*7)
	}
}
