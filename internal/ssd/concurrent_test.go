package ssd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hic"
)

// TestConcurrentRigSweepsShareArena is the pooled-buffer ownership
// property test: several complete rigs run storms concurrently
// (`go test -parallel 8`) in one process. Rigs share no page arena —
// every LUN owns its pool — so a page can only cross rigs if some layer
// handed a buffer to another rig's structures or kept using it past its
// Release; either way the per-rig FillPattern verification below would
// see another rig's payload (or, under `-tags bufdebug`, poison bytes).
// Each subtest uses a distinct seed and workload mix so the rigs are out
// of phase with each other.
func TestConcurrentRigSweepsShareArena(t *testing.T) {
	for i := 0; i < 8; i++ {
		i := i
		t.Run(fmt.Sprintf("rig%d", i), func(t *testing.T) {
			t.Parallel()
			cfg := smallBuild(CtrlBabolRTOS)
			cfg.Ways = 1 + i%3
			cfg.UseCopyback = i%2 == 1
			rig := mustBuild(t, cfg)
			logical := rig.FTL.LogicalPages()
			rng := rand.New(rand.NewSource(int64(1000 + i)))

			written := make([]bool, logical)
			const storm = 400
			issued := 0
			var issue func()
			issue = func() {
				if issued >= storm {
					return
				}
				issued++
				lpn := rng.Intn(logical)
				kind := hic.KindRead
				// Rigs differ in read/write mix so their page traffic
				// interleaves differently.
				if rng.Intn(100) < 30+10*(i%4) {
					kind = hic.KindWrite
				}
				if kind == hic.KindWrite {
					rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: lpn, Done: func(err error) {
						if err != nil {
							t.Errorf("write LPN %d: %v", lpn, err)
						} else {
							written[lpn] = true
						}
						issue()
					}})
					return
				}
				rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
					if err != nil {
						t.Errorf("read LPN %d: %v", lpn, err)
					}
					issue()
				}})
			}
			for q := 0; q < 4; q++ {
				issue()
			}
			rig.Kernel.Run()
			if issued != storm {
				t.Fatalf("issued %d of %d", issued, storm)
			}
			if err := rig.FTL.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Quiescent sweep: every page this rig wrote still holds this
			// rig's LPN-derived pattern, byte for byte.
			verify := make([]byte, 512)
			for lpn := 0; lpn < logical; lpn++ {
				if !written[lpn] {
					continue
				}
				loc, ok := rig.FTL.Lookup(lpn)
				if !ok {
					t.Fatalf("written LPN %d unmapped", lpn)
				}
				data, err := rig.SSD.lun(loc.Chip).PeekPage(loc.Row)
				if err != nil {
					t.Fatal(err)
				}
				FillPattern(verify, lpn)
				for b := range verify {
					if data[b] != verify[b] {
						t.Fatalf("LPN %d corrupt at byte %d: got %#x want %#x (cross-rig aliasing?)", lpn, b, data[b], verify[b])
					}
				}
			}
		})
	}
}
