package nand

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/onfi"
	"repro/internal/sim"
)

// FuzzLatchStorm drives the LUN decoder with arbitrary latch sequences,
// data bursts, and time jumps. The input is a program, one op per byte
// (op = b % 5), each taking its operands from the bytes after it:
//
//	0 c            command latch c
//	1 n a…         burst of 1+n%6 address latches
//	2 n v          data in: 1+n%64 bytes of v
//	3 n            data out: 1+n%64 bytes
//	4 hi lo        time advances by (hi<<8|lo)/65536 of tBERS
//
// Protocol errors are expected and fine; panics, stuck-busy states, or
// corrupted bookkeeping are not. The instant the storm ends, the LUN
// must accept RESET, be ready within a millisecond, and then serve a
// clean READ of a seeded page: no command sequence, however buggy the
// firmware, may wedge the model. The LUN has two planes, so storms reach
// the multi-plane queues (32h, 11h, repeated 60h) and their confirms.
func FuzzLatchStorm(f *testing.F) {
	f.Fuzz(func(t *testing.T, storm []byte) {
		l, err := NewLUN(twoPlane())
		if err != nil {
			t.Fatal(err)
		}
		p := l.Params()
		next := func() byte {
			if len(storm) == 0 {
				return 0
			}
			b := storm[0]
			storm = storm[1:]
			return b
		}
		now := sim.Time(0)
		for len(storm) > 0 {
			switch next() % 5 {
			case 0:
				_ = l.Latch(now, []onfi.Latch{onfi.CmdLatch(onfi.Cmd(next()))})
			case 1:
				ls := make([]onfi.Latch, 1+next()%6)
				for j := range ls {
					ls[j] = onfi.AddrLatch(next())
				}
				_ = l.Latch(now, ls)
			case 2:
				buf := make([]byte, 1+next()%64)
				v := next()
				for j := range buf {
					buf[j] = v
				}
				_ = l.DataIn(now, buf)
			case 3:
				_, _ = l.DataOut(now, 1+int(next()%64))
			case 4:
				frac := sim.Duration(next())<<8 | sim.Duration(next())
				now = now.Add(p.TBERS * frac / 65536)
			}
		}

		// RESET aborts whatever the storm left running, at the instant it
		// ended: no wait for the array to go quiet first.
		if err := l.Latch(now, []onfi.Latch{onfi.CmdLatch(onfi.CmdReset)}); err != nil {
			t.Fatalf("reset rejected: %v", err)
		}
		now = now.Add(sim.Millisecond)
		if !l.Ready(now) {
			t.Fatalf("not ready after reset (busy until %v, now %v)", l.ReadyAt(), now)
		}
		if err := l.SeedPage(onfi.RowAddr{Block: 1}, []byte{0x42}); err != nil {
			t.Fatal(err)
		}
		latches := p.Geometry.AppendAddrLatches([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, onfi.Addr{Row: onfi.RowAddr{Block: 1}})
		latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
		if err := l.Latch(now, latches); err != nil {
			t.Fatalf("post-reset read rejected: %v", err)
		}
		now = now.Add(2 * p.TR)
		data, err := l.DataOut(now, 1)
		if err != nil {
			t.Fatalf("post-reset data out: %v", err)
		}
		if data[0] != 0x42 {
			t.Fatalf("post-reset read returned %#x, want 0x42", data[0])
		}
	})
}

// TestParamPageParserNeverPanics feeds the parameter-page parser random
// bytes: it must reject or accept, never crash.
func TestParamPageParserNeverPanics(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size)%600)
		rng.Read(buf)
		_, _ = ParseParameterPage(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
