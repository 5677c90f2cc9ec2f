//go:build bufdebug

package pagebuf

import (
	"strings"
	"testing"
	"unsafe"
)

func addr(b *Buf) uintptr { return uintptr(unsafe.Pointer(&b.Bytes()[0])) }

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestUseAfterReleasePanics(t *testing.T) {
	p := NewPool(32)
	b := p.Get()
	b.Release()
	mustPanic(t, "use-after-release", func() { b.Bytes() })
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(32)
	b := p.Get()
	b.Release()
	mustPanic(t, "release", func() { b.Release() })
}

// TestReleasePoisonsPayload checks the diagnostic side of the contract:
// a stale alias held across Release reads PoisonByte, not plausible
// data. (Holding the alias is exactly the bug the poison makes loud;
// the test commits it deliberately.)
func TestReleasePoisonsPayload(t *testing.T) {
	p := NewPool(32)
	b := p.Get()
	alias := b.Bytes()
	for i := range alias {
		alias[i] = 0xAA
	}
	b.Release()
	for i, v := range alias {
		if v != PoisonByte {
			t.Fatalf("byte %d = %#x after release, want poison %#x", i, v, PoisonByte)
		}
	}
}

// TestRetainDefersPoison pins the reference count: a buffer with two
// references survives the first Release untouched and is poisoned by the
// second, after which a third panics.
func TestRetainDefersPoison(t *testing.T) {
	p := NewPool(32)
	b := p.Get()
	alias := b.Bytes()
	for i := range alias {
		alias[i] = 0xAA
	}
	b.Retain()
	b.Release()
	if got := b.Bytes()[0]; got != 0xAA {
		t.Fatalf("byte 0 = %#x after releasing one of two references, want 0xaa", got)
	}
	b.Release()
	if alias[0] != PoisonByte {
		t.Fatalf("byte 0 = %#x after the last release, want poison %#x", alias[0], PoisonByte)
	}
	mustPanic(t, "use-after-release", func() { b.Retain() })
	mustPanic(t, "release", func() { b.Release() })
}

// TestPoisonStaysInItsPage releases the middle page of a slab and checks
// that the poison fills exactly that page: its neighbours in the same
// slab keep every byte.
func TestPoisonStaysInItsPage(t *testing.T) {
	p := NewPool(576)
	for len(p.slab) < 3 { // carve until the slab has three pages left
		p.Get()
	}
	var b [3]*Buf
	for i := range b {
		b[i] = p.Get()
		for j := range b[i].Bytes() {
			b[i].Bytes()[j] = byte(i + 1)
		}
	}
	for i := 1; i < len(b); i++ {
		if addr(b[i-1])+576 != addr(b[i]) {
			t.Fatal("the three pages do not sit back to back in one slab")
		}
	}
	mid := b[1].Bytes()
	b[1].Release()
	for j, v := range mid {
		if v != PoisonByte {
			t.Fatalf("released page byte %d = %#x, want poison", j, v)
		}
	}
	for _, i := range []int{0, 2} {
		for j, v := range b[i].Bytes() {
			if v != byte(i+1) {
				t.Fatalf("neighbour %d byte %d = %#x after the middle page was poisoned, want %#x", i, j, v, i+1)
			}
		}
		b[i].Release()
	}
}
