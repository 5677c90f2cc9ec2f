package ops_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/wave"
)

func TestCopybackPage(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	want := bytes.Repeat([]byte{0xD4}, 256)
	src := onfi.RowAddr{Block: 1, Page: 2}
	dst := onfi.RowAddr{Block: 4, Page: 0}
	if err := lun.SeedPage(src, want); err != nil {
		t.Fatal(err)
	}

	err := r.run(t, core.OpRequest{Func: ops.CopybackPage(src, dst), Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lun.PeekPage(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:256], want) {
		t.Error("copyback destination mismatch")
	}
	// Source unchanged.
	srcData, _ := lun.PeekPage(src)
	if !bytes.Equal(srcData[:256], want) {
		t.Error("copyback clobbered the source")
	}

	// The key property: no page-sized data crossed the channel — only
	// latch bursts and 1-byte status reads.
	for _, s := range r.pins.Events() {
		if (s.Kind == obs.KindBusDataOut || s.Kind == obs.KindBusDataIn) && s.Bytes > 1 {
			t.Errorf("copyback moved %d bytes over the channel", s.Bytes)
		}
	}
	// And the waveform is still ONFI-legal.
	chk := wave.NewChecker(r.ch.Timing(), r.ch.Config())
	if vs := chk.Check(r.pins.Events()); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestCopybackToProgrammedPageFails(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	src := onfi.RowAddr{Block: 1, Page: 0}
	dst := onfi.RowAddr{Block: 2, Page: 0}
	lun.SeedPage(src, []byte{1})
	lun.SeedPage(dst, []byte{2}) // already programmed: overwrite must FAIL
	err := r.run(t, core.OpRequest{Func: ops.CopybackPage(src, dst), Chip: 0})
	if err == nil {
		t.Error("copyback overwrite accepted")
	}
}

func TestCopybackValidation(t *testing.T) {
	r := newRig(t, 1, smallParams())
	bad := onfi.RowAddr{Block: 999}
	if err := r.run(t, core.OpRequest{Func: ops.CopybackPage(bad, onfi.RowAddr{}), Chip: 0}); err == nil {
		t.Error("bad source accepted")
	}
	if err := r.run(t, core.OpRequest{Func: ops.CopybackPage(onfi.RowAddr{}, bad), Chip: 0}); err == nil {
		t.Error("bad destination accepted")
	}
}
