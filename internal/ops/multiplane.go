package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/onfi"
)

// Multi-plane operations: one LUN runs the same array operation on every
// plane concurrently, so N planes deliver N pages in a single tR (or
// tPROG/tBERS). These are exactly the package-specific "advanced
// commands" the paper argues software-defined controllers should absorb:
// each is a short composition over the same five µFSMs.

// checkPlanes validates that rows hit pairwise distinct planes.
func checkPlanes(g onfi.Geometry, rows []onfi.RowAddr) error {
	if len(rows) < 2 {
		return fmt.Errorf("ops: multi-plane operation needs ≥2 rows, got %d", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if err := g.CheckAddr(onfi.Addr{Row: r}); err != nil {
			return err
		}
		p := g.PlaneOf(r.Block)
		if seen[p] {
			return fmt.Errorf("ops: rows %v reuse plane %d", rows, p)
		}
		seen[p] = true
	}
	return nil
}

// MPReadPages reads one page per plane concurrently: queue each row with
// 32h, confirm the last with 30h (one shared tR), then select each plane
// with CHANGE READ COLUMN ENHANCED and stream it out. Pages land
// contiguously in DRAM at dramAddr.
func MPReadPages(rows []onfi.RowAddr, dramAddr, pageBytes int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		if err := checkPlanes(g, rows); err != nil {
			return err
		}
		// Queue every plane but the last; each 32h costs one tDBSY.
		var lbuf [8]onfi.Latch
		for _, r := range rows[:len(rows)-1] {
			ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: r}, onfi.CmdMPReadQueue)...)
			if res := ctx.Submit(); res.Err != nil {
				return res.Err
			}
			if _, err := pollReady(ctx, chip); err != nil {
				return err
			}
		}
		// Final plane confirms with 30h: all planes fetch together.
		ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: rows[len(rows)-1]}, onfi.CmdRead2)...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		if err := waitOK(ctx, chip, func() error { return fmt.Errorf("ops: multi-plane read reported FAIL") }); err != nil {
			return err
		}
		// Stream each plane out: 06h + full address + E0h selects the
		// plane, then the data burst.
		for i, r := range rows {
			latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdChangeReadColE1))
			latches = g.AppendAddrLatches(latches, onfi.Addr{Row: r})
			latches = append(latches, onfi.CmdLatch(onfi.CmdChangeReadCol2))
			ctx.CmdAddr(latches...)
			ctx.ReadData(dramAddr+i*pageBytes, pageBytes)
			if i == len(rows)-1 {
				if res := ctx.SubmitFinal(); res.Err != nil {
					return res.Err
				}
			} else if res := ctx.Submit(); res.Err != nil {
				return res.Err
			}
		}
		return nil
	}
}

// MPProgramPages programs one page per plane concurrently: stage each
// plane's data with 80h…11h, confirm the last with 10h, and pay tPROG
// once. Source pages sit contiguously in DRAM at dramAddr.
func MPProgramPages(rows []onfi.RowAddr, dramAddr, pageBytes int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		if err := checkPlanes(g, rows); err != nil {
			return err
		}
		// Queue every plane but the last; each 11h costs one tDBSY.
		last := len(rows) - 1
		for i, r := range rows[:last] {
			if err := startProgram(ctx, g, onfi.Addr{Row: r}, dramAddr+i*pageBytes, pageBytes, onfi.CmdMPProgramQueue); err != nil {
				return err
			}
			if _, err := pollReady(ctx, chip); err != nil {
				return err
			}
		}
		// The final plane confirms with 10h: all planes program together.
		if err := startProgram(ctx, g, onfi.Addr{Row: rows[last]}, dramAddr+last*pageBytes, pageBytes, onfi.CmdProgram2); err != nil {
			return err
		}
		return waitOK(ctx, chip, func() error { return fmt.Errorf("ops: multi-plane program reported FAIL") })
	}
}

// MPEraseBlocks erases one block per plane concurrently: repeated
// 60h+row bursts, one D0h confirm, one shared tBERS.
func MPEraseBlocks(blocks []int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		rows := make([]onfi.RowAddr, len(blocks))
		for i, b := range blocks {
			rows[i] = onfi.RowAddr{Block: b}
		}
		if err := checkPlanes(g, rows); err != nil {
			return err
		}
		var lbuf [32]onfi.Latch
		latches := lbuf[:0]
		for _, r := range rows {
			latches = append(latches, onfi.CmdLatch(onfi.CmdErase1))
			latches = g.AppendRowLatches(latches, r)
		}
		latches = append(latches, onfi.CmdLatch(onfi.CmdErase2))
		ctx.CmdAddr(latches...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		return waitOK(ctx, chip, func() error { return fmt.Errorf("ops: multi-plane erase of %v reported FAIL", blocks) })
	}
}
