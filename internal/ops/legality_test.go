package ops_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/wave"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestEveryOperationEmitsLegalWaveforms runs each library operation on a
// fresh rig and validates the full captured channel trace against the
// ONFI timing checker. This is the repository-wide guarantee the µFSM
// abstraction promises: no matter how operations compose instructions,
// the emitted waveforms are legal.
//
// Each case also pins what the operation did to testdata/<case>.golden:
// its error text, a digest of the DRAM bytes afterwards, and the
// wave.Render listing of every pin-level event. A refactor of the
// library diffs against these; regenerate them only for an intended
// change, and say why:
// `go test ./internal/ops -run TestEveryOperationEmitsLegalWaveforms -update`.
func TestEveryOperationEmitsLegalWaveforms(t *testing.T) {
	params := twoPlaneParams()
	type tc struct {
		name  string
		prep  func(r *rig)
		req   func(r *rig) core.OpRequest
		allow bool // operation may legitimately fail (e.g. retry exhaustion)
	}
	seed := func(r *rig, rows ...onfi.RowAddr) {
		for _, row := range rows {
			if err := r.ch.Chip(0).SeedPage(row, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// reads yields the given urgent reads on the listed calls of next
	// (1-based), and nothing on every other call.
	reads := func(t *testing.T, at map[int]ops.UrgentRead) func() (ops.UrgentRead, bool) {
		calls := 0
		return func() (ops.UrgentRead, bool) {
			calls++
			ur, ok := at[calls]
			if ok {
				ur.Done = func(err error) {
					if err != nil {
						t.Errorf("urgent read at %+v: %v", ur.Addr, err)
					}
				}
			}
			return ur, ok
		}
	}
	var idBuf []byte
	var feat [4]byte
	var parsed nand.ParsedParamPage
	var phase int
	cases := []tc{
		{name: "ReadPage",
			prep: func(r *rig) { seed(r, onfi.RowAddr{}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ReadPage(onfi.Addr{}, 0, 256), Chip: 0}
			}},
		{name: "ReadPageSLC",
			prep: func(r *rig) { seed(r, onfi.RowAddr{}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ReadPageSLC(onfi.Addr{}, 0, 256), Chip: 0}
			}},
		{name: "ReadPageFixedWait",
			prep: func(r *rig) { seed(r, onfi.RowAddr{}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ReadPageFixedWait(onfi.Addr{}, 0, 256, params.TR*2), Chip: 0}
			}},
		{name: "ProgramPage",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ProgramPage(onfi.Addr{Row: onfi.RowAddr{Block: 2}}, 0, 256), Chip: 0}
			}},
		{name: "ProgramPageSLC",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ProgramPageSLC(onfi.Addr{Row: onfi.RowAddr{Block: 3}}, 0, 256), Chip: 0}
			}},
		{name: "EraseBlock",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.EraseBlock(1), Chip: 0}
			}},
		{name: "ReadID",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ReadID(&idBuf, 4), Chip: 0}
			}},
		{name: "Reset",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.Reset(), Chip: 0}
			}},
		{name: "SetFeature",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.SetFeature(onfi.FeatDriveStrength, [4]byte{1}), Chip: 0}
			}},
		{name: "GetFeature",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.GetFeature(onfi.FeatDriveStrength, &feat), Chip: 0}
			}},
		{name: "CacheReadPages",
			prep: func(r *rig) {
				seed(r, onfi.RowAddr{Page: 0}, onfi.RowAddr{Page: 1}, onfi.RowAddr{Page: 2})
			},
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.CacheReadPages(onfi.RowAddr{}, 3, 0, 256), Chip: 0}
			}},
		{name: "ReadWithRetry",
			prep: func(r *rig) { seed(r, onfi.RowAddr{}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{
					Func: ops.ReadWithRetry(onfi.Addr{}, 0, 256, func([]byte) bool { return true }),
					Chip: 0,
				}
			}},
		{name: "GangRead",
			prep: func(r *rig) {
				for c := 0; c < 2; c++ {
					if err := r.ch.Chip(c).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
						t.Fatal(err)
					}
				}
			},
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.GangRead([]int{0, 1}, onfi.Addr{}, 0, 256), Chip: 0, ExtraChips: []int{1}}
			}},
		{name: "GangProgram",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.GangProgram([]int{0, 1}, onfi.Addr{Row: onfi.RowAddr{Block: 4}}, 0, 256), Chip: 0, ExtraChips: []int{1}}
			}},
		{name: "EraseWithSuspend",
			prep: func(r *rig) { seed(r, onfi.RowAddr{Block: 2}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{
					Func: ops.EraseWithSuspend(5, onfi.Addr{Row: onfi.RowAddr{Block: 2}}, 0, 256, params.TBERS/4),
					Chip: 0,
				}
			}},
		{name: "BootSequence",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.BootSequence(params.IDBytes[:2], 0x15), Chip: 0}
			}},
		{name: "ReadParameterPage",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.ReadParameterPage(&parsed), Chip: 0}
			}},
		{name: "CalibratePhase",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.CalibratePhase(16, &phase), Chip: 0}
			}},
		{name: "CopybackPage",
			prep: func(r *rig) { seed(r, onfi.RowAddr{Block: 2}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.CopybackPage(onfi.RowAddr{Block: 2}, onfi.RowAddr{Block: 6}), Chip: 0}
			}},
		{name: "MPReadPages",
			prep: func(r *rig) { seed(r, onfi.RowAddr{Block: 0}, onfi.RowAddr{Block: 1}) },
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.MPReadPages([]onfi.RowAddr{{Block: 0}, {Block: 1}}, 0, 256), Chip: 0}
			}},
		{name: "MPProgramPages",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.MPProgramPages([]onfi.RowAddr{{Block: 4}, {Block: 5}}, 0, 256), Chip: 0}
			}},
		{name: "MPEraseBlocks",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{Func: ops.MPEraseBlocks([]int{2, 3}), Chip: 0}
			}},
		{name: "InterruptibleErase",
			req: func(r *rig) core.OpRequest {
				return core.OpRequest{
					Func: ops.InterruptibleErase(1, func() (ops.UrgentRead, bool) { return ops.UrgentRead{}, false }),
					Chip: 0,
				}
			}},
		{name: "InterruptibleEraseServesReads",
			prep: func(r *rig) { seed(r, onfi.RowAddr{Block: 2, Page: 1}, onfi.RowAddr{Block: 3}) },
			req: func(r *rig) core.OpRequest {
				// The second read arrives after the first suspension has
				// resumed, so the erase is suspended twice.
				next := reads(t, map[int]ops.UrgentRead{
					1: {Addr: onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}, DramAddr: 0, N: 256},
					4: {Addr: onfi.Addr{Row: onfi.RowAddr{Block: 3}}, DramAddr: 4096, N: 256},
				})
				return core.OpRequest{Func: ops.InterruptibleErase(1, next), Chip: 0}
			}},
		{name: "InterruptibleProgram",
			prep: func(r *rig) {
				seed(r, onfi.RowAddr{Block: 3, Page: 1})
				if err := r.mem.Write(0, []byte{7, 8, 9}); err != nil {
					t.Fatal(err)
				}
			},
			req: func(r *rig) core.OpRequest {
				next := reads(t, map[int]ops.UrgentRead{
					1: {Addr: onfi.Addr{Row: onfi.RowAddr{Block: 3, Page: 1}}, DramAddr: 4096, N: 256},
				})
				return core.OpRequest{Func: ops.InterruptibleProgram(onfi.Addr{Row: onfi.RowAddr{Block: 5}}, 0, 256, next), Chip: 0}
			}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 2, params)
			if c.prep != nil {
				c.prep(r)
			}
			err := r.run(t, c.req(r))
			if err != nil && !c.allow {
				t.Fatalf("operation failed: %v", err)
			}
			chk := wave.NewChecker(r.ch.Timing(), r.ch.Config())
			if vs := chk.Check(r.pins.Events()); len(vs) != 0 {
				t.Errorf("%d ONFI violations:", len(vs))
				for _, v := range vs {
					t.Errorf("  %v", v)
				}
			}
			// Nothing may linger: the channel drains completely.
			if r.ctrl.Pending() != 0 {
				t.Error("operations still pending after drain")
			}
			checkOpGolden(t, c.name, r, err)
		})
	}
	// Every case above read erased rows through the LUNs; none may have
	// written into the bytes that back an erased row, which a fresh LUN
	// of the same geometry still reads as all 0xFF.
	t.Run("ErasedRowsStillFF", func(t *testing.T) {
		lun, err := nand.NewLUN(params)
		if err != nil {
			t.Fatal(err)
		}
		addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 1}}
		ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, params.Geometry.AddrLatches(addr)...)
		if err := lun.Latch(0, append(ls, onfi.CmdLatch(onfi.CmdRead2))); err != nil {
			t.Fatal(err)
		}
		got, err := lun.DataOut(lun.ReadyAt(), params.Geometry.FullPageBytes())
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{0xFF}, len(got)); !bytes.Equal(got, want) {
			t.Errorf("an erased row reads % X…, want all FF", got[:16])
		}
	})
}

// checkOpGolden compares an operation's error, DRAM contents and
// waveform with testdata/<name>.golden, or rewrites the file under
// -update.
func checkOpGolden(t *testing.T, name string, r *rig, opErr error) {
	t.Helper()
	mem, err := r.mem.Read(0, r.mem.Size())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("error: %v\ndram sha256: %x\n\n%s", opErr, sha256.Sum256(mem), wave.Render(r.pins.Events()))
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s\n got:\n%s\nwant:\n%s", name, path, got, want)
	}
}
