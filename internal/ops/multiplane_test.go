package ops_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/wave"
)

// twoPlaneParams returns a small two-plane geometry (blocks interleave
// across planes: even blocks plane 0, odd blocks plane 1).
func twoPlaneParams() nand.Params {
	p := smallParams()
	p.Geometry.Planes = 2
	return p
}

func TestMPReadPages(t *testing.T) {
	r := newRig(t, 1, twoPlaneParams())
	lun := r.ch.Chip(0)
	p0 := bytes.Repeat([]byte{0xA0}, 256)
	p1 := bytes.Repeat([]byte{0xB1}, 256)
	rows := []onfi.RowAddr{{Block: 2, Page: 1}, {Block: 3, Page: 1}} // planes 0 and 1
	if err := lun.SeedPage(rows[0], p0); err != nil {
		t.Fatal(err)
	}
	if err := lun.SeedPage(rows[1], p1); err != nil {
		t.Fatal(err)
	}
	err := r.run(t, core.OpRequest{Func: ops.MPReadPages(rows, 0, 256), Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.mem.Read(0, 512)
	if !bytes.Equal(got[:256], p0) || !bytes.Equal(got[256:], p1) {
		t.Error("multi-plane read data mismatch")
	}
	chk := wave.NewChecker(r.ch.Timing(), r.ch.Config())
	if vs := chk.Check(r.pins.Events()); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestMPReadSharesTR(t *testing.T) {
	// Two planes must take roughly one tR, not two: compare against two
	// dependent single-plane reads.
	measure := func(multi bool) sim.Duration {
		r := newRig(t, 1, twoPlaneParams())
		lun := r.ch.Chip(0)
		rows := []onfi.RowAddr{{Block: 0, Page: 0}, {Block: 1, Page: 0}}
		for _, row := range rows {
			if err := lun.SeedPage(row, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		var end sim.Time
		if multi {
			r.ctrl.Start(core.OpRequest{
				Func: ops.MPReadPages(rows, 0, 256), Chip: 0,
				Done: func(err error) {
					if err != nil {
						t.Fatal(err)
					}
					end = r.k.Now()
				},
			})
			r.k.Run()
		} else {
			r.ctrl.Start(core.OpRequest{
				Func: ops.ReadPage(onfi.Addr{Row: rows[0]}, 0, 256), Chip: 0,
				Done: func(err error) {
					if err != nil {
						t.Fatal(err)
					}
					r.ctrl.Start(core.OpRequest{
						Func: ops.ReadPage(onfi.Addr{Row: rows[1]}, 256, 256), Chip: 0,
						Done: func(err error) {
							if err != nil {
								t.Fatal(err)
							}
							end = r.k.Now()
						},
					})
				},
			})
			r.k.Run()
		}
		return sim.Duration(end)
	}
	single, multi := measure(false), measure(true)
	// Two serial reads pay 2×tR (200 µs of array time); the multi-plane
	// read pays one. Require a clear win.
	if multi >= single-smallParams().TR/2 {
		t.Errorf("multi-plane read %v not meaningfully faster than serial %v", multi, single)
	}
}

func TestMPProgramAndReadBack(t *testing.T) {
	r := newRig(t, 1, twoPlaneParams())
	rows := []onfi.RowAddr{{Block: 4, Page: 0}, {Block: 5, Page: 0}}
	d0 := bytes.Repeat([]byte{0x17}, 256)
	d1 := bytes.Repeat([]byte{0x28}, 256)
	if err := r.mem.Write(0, append(append([]byte{}, d0...), d1...)); err != nil {
		t.Fatal(err)
	}
	err := r.run(t, core.OpRequest{Func: ops.MPProgramPages(rows, 0, 256), Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		page, err := r.ch.Chip(0).PeekPage(row)
		if err != nil {
			t.Fatal(err)
		}
		want := d0
		if i == 1 {
			want = d1
		}
		if !bytes.Equal(page[:256], want) {
			t.Errorf("plane %d content mismatch", i)
		}
	}
}

func TestMPEraseBlocks(t *testing.T) {
	r := newRig(t, 1, twoPlaneParams())
	lun := r.ch.Chip(0)
	lun.SeedPage(onfi.RowAddr{Block: 2}, []byte{1})
	lun.SeedPage(onfi.RowAddr{Block: 3}, []byte{1})
	start := r.k.Now()
	err := r.run(t, core.OpRequest{Func: ops.MPEraseBlocks([]int{2, 3}), Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if lun.EraseCount(2) != 1 || lun.EraseCount(3) != 1 {
		t.Error("both blocks should be erased")
	}
	// One shared tBERS, not two.
	elapsed := r.k.Now().Sub(start)
	if elapsed > smallParams().TBERS+smallParams().TBERS/2 {
		t.Errorf("multi-plane erase took %v, want ≈1×tBERS (%v)", elapsed, smallParams().TBERS)
	}
}

func TestMPPlaneValidation(t *testing.T) {
	r := newRig(t, 1, twoPlaneParams())
	// Same plane twice (both even blocks) must be rejected.
	rows := []onfi.RowAddr{{Block: 0}, {Block: 2}}
	if err := r.run(t, core.OpRequest{Func: ops.MPReadPages(rows, 0, 256), Chip: 0}); err == nil {
		t.Error("same-plane multi-plane read accepted")
	}
	if err := r.run(t, core.OpRequest{Func: ops.MPEraseBlocks([]int{1}), Chip: 0}); err == nil {
		t.Error("single-row multi-plane erase accepted")
	}
	if err := r.run(t, core.OpRequest{Func: ops.MPProgramPages(rows, 0, 256), Chip: 0}); err == nil {
		t.Error("same-plane multi-plane program accepted")
	}
}
