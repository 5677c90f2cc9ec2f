package ssd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hwctrl"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
)

// Copybacker is the optional backend capability of relocating a page
// inside one LUN with NAND copyback. The BABOL controller supports it
// (it is just another software operation); the hardware baseline would
// need a new FSM, so it does not — exactly the flexibility argument the
// paper makes.
type Copybacker interface {
	CopybackPage(chip int, src, dst onfi.RowAddr, done func(error))
}

// InterruptibleEraser is the optional backend capability of erasing a
// block while serving urgent reads mid-erase (suspend/resume). Like
// copyback, it is a pure software operation on BABOL and absent from the
// hardware baseline.
type InterruptibleEraser interface {
	EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error))
}

// babolBackend adapts the BABOL software-defined controller to the
// SSD's page-level interface.
type babolBackend struct {
	ctrl *core.Controller
	// free recycles page-op states (with their bound callbacks) so a
	// READ, PROGRAM or ERASE in the steady state allocates nothing.
	free []*pageOp
}

// NewBabolBackend wraps a BABOL controller.
func NewBabolBackend(c *core.Controller) Backend { return &babolBackend{ctrl: c} }

func (b *babolBackend) Chip(i int) *nand.LUN { return b.ctrl.Channel().Chip(i) }

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

// CopybackPage implements Copybacker via the operation library.
func (b *babolBackend) CopybackPage(chip int, src, dst onfi.RowAddr, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.CopybackPage(src, dst),
		Chip: chip,
		Done: done,
	})
}

// EraseBlockInterruptible implements InterruptibleEraser.
func (b *babolBackend) EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.InterruptibleErase(block, next),
		Chip: chip,
		Done: done,
	})
}

// hwBackend adapts the hardware baseline controller.
type hwBackend struct {
	ctrl *hwctrl.Controller
}

// NewHWBackend wraps a hardware baseline controller.
func NewHWBackend(c *hwctrl.Controller) Backend { return &hwBackend{ctrl: c} }

func (b *hwBackend) Chip(i int) *nand.LUN { return b.ctrl.Channel().Chip(i) }

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
		if err := s.backend.Chip(loc.Chip).SeedPage(loc.Row, buf); err != nil {
			return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
		}
	}
	return nil
}
