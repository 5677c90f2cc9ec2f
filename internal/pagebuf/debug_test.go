//go:build bufdebug

package pagebuf

import (
	"strings"
	"testing"
)

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
