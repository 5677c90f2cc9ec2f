package ssd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hwctrl"
	"repro/internal/onfi"
	"repro/internal/ops"
)

// backend is the page-level interface of one channel controller; chip
// is the way on that channel. The BABOL controller and the hardware
// baseline both adapt to it.
type backend interface {
	// ReadPage reads n bytes of the page at row on chip into DRAM.
	ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error))
	// ProgramPage programs n bytes from DRAM into the page at row.
	ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error))
	// EraseBlock erases a block on chip.
	EraseBlock(chip, block int, done func(error))
	// CopybackPage relocates a page inside the LUN with NAND copyback.
	// BABOL only: the SSD calls it only when Build set useCopyback.
	CopybackPage(chip int, src, dst onfi.RowAddr, done func(error))
	// EraseBlockInterruptible erases a block while serving urgent reads
	// mid-erase (suspend/resume), pulling them through next. It returns
	// the sink the host must push urgent reads into instead, or nil when
	// next already pulls from the caller's queue. BABOL only: the SSD
	// calls it only when Build set suspendReads.
	EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error)) urgentSink
}

// babolBackend adapts the BABOL software-defined controller to the
// SSD's page-level interface.
type babolBackend struct {
	ctrl *core.Controller
	// free recycles page-op states (with their bound callbacks) so a
	// READ, PROGRAM or ERASE in the steady state allocates nothing.
	free []*pageOp
}

type pageKind uint8

const (
	pageRead pageKind = iota
	pageProgram
	pageErase
)

// pageOp carries one page operation from Start to its Done: the
// arguments the operation body reads, and the caller's callback. run
// and finish are bound once per pooled state.
type pageOp struct {
	b           *babolBackend
	kind        pageKind
	row         onfi.RowAddr
	dramAddr, n int
	done        func(error)
	runFn       core.OpFunc
	finishFn    func(error)
}

// start runs one page operation on a pooled state.
func (b *babolBackend) start(kind pageKind, chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	p, ok := popFree(&b.free)
	if !ok {
		p = &pageOp{b: b}
		p.runFn = p.run
		p.finishFn = p.finish
	}
	p.kind, p.row, p.dramAddr, p.n, p.done = kind, row, dramAddr, n, done
	b.ctrl.Start(core.OpRequest{Func: p.runFn, Chip: chip, Done: p.finishFn})
}

func (p *pageOp) run(ctx *core.Ctx) error {
	switch p.kind {
	case pageRead:
		return ops.RunReadPage(ctx, onfi.Addr{Row: p.row}, p.dramAddr, p.n)
	case pageProgram:
		return ops.RunProgramPage(ctx, onfi.Addr{Row: p.row}, p.dramAddr, p.n)
	default:
		return ops.RunEraseBlock(ctx, p.row.Block)
	}
}

// finish recycles before completing, like readState.finish: a
// synchronously chained page op reuses this state.
func (p *pageOp) finish(err error) {
	done := p.done
	p.done = nil
	p.b.free = append(p.b.free, p)
	if done != nil {
		done(err)
	}
}

func (b *babolBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	b.start(pageRead, chip, row, dramAddr, n, done)
}

func (b *babolBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	b.start(pageProgram, chip, row, dramAddr, n, done)
}

func (b *babolBackend) EraseBlock(chip, block int, done func(error)) {
	b.start(pageErase, chip, onfi.RowAddr{Block: block}, 0, 0, done)
}

// CopybackPage runs copyback from the operation library: just another
// software operation on BABOL, where the hardware baseline would need a
// new FSM — the flexibility argument the paper makes.
func (b *babolBackend) CopybackPage(chip int, src, dst onfi.RowAddr, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.CopybackPage(src, dst),
		Chip: chip,
		Done: done,
	})
}

// EraseBlockInterruptible runs the library's interruptible erase, which
// pulls urgent reads through next on this domain.
func (b *babolBackend) EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error)) urgentSink {
	b.ctrl.Start(core.OpRequest{
		Func: ops.InterruptibleErase(block, next),
		Chip: chip,
		Done: done,
	})
	return nil
}

// hwBackend adapts the hardware baseline controller.
type hwBackend struct {
	ctrl *hwctrl.Controller
}

func (b *hwBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindRead, Addr: onfi.Addr{Row: row}, DRAMAddr: dramAddr, N: n, Done: done,
	}); err != nil {
		done(err)
	}
}

func (b *hwBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindProgram, Addr: onfi.Addr{Row: row}, DRAMAddr: dramAddr, N: n, Done: done,
	}); err != nil {
		done(err)
	}
}

func (b *hwBackend) EraseBlock(chip, block int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindErase, Addr: onfi.Addr{Row: onfi.RowAddr{Block: block}}, Done: done,
	}); err != nil {
		done(err)
	}
}

// The hardware baseline has neither copyback nor erase suspension, and
// Build never enables them on a HW rig.
func (b *hwBackend) CopybackPage(int, onfi.RowAddr, onfi.RowAddr, func(error)) {
	panic("ssd: copyback on the hardware baseline")
}

func (b *hwBackend) EraseBlockInterruptible(int, int, func() (ops.UrgentRead, bool), func(error)) urgentSink {
	panic("ssd: erase suspension on the hardware baseline")
}

// Preload initializes the first `lpns` logical pages with the canonical
// pattern, installing FTL mappings and seeding the flash arrays directly
// (no simulated PROGRAM traffic) — how the paper "initializes the
// devices with data" before its fio runs.
func (s *SSD) Preload(lpns int) error {
	if lpns > s.ftl.LogicalPages() {
		return fmt.Errorf("ssd: preload of %d pages exceeds logical capacity %d", lpns, s.ftl.LogicalPages())
	}
	buf := make([]byte, s.pageBytes+s.parityBytes)
	for lpn := 0; lpn < lpns; lpn++ {
		loc, err := s.ftl.AllocateWrite(lpn)
		if err != nil {
			return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
		}
		FillPattern(buf[:s.pageBytes], lpn)
		if s.withECC {
			// Encode parity in place in the staging buffer — the
			// EncodePage-then-copy detour allocated a parity slice per
			// preloaded page.
			if err := s.codec.EncodePageInto(buf[s.pageBytes:], buf[:s.pageBytes]); err != nil {
				return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
			}
		}
		if err := s.lun(loc.Chip).SeedPage(loc.Row, buf); err != nil {
			return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
		}
	}
	return nil
}
