// Customop: write a brand-new, non-standard flash operation in a few
// lines of plain Go — the paper's core promise. The operation below is a
// "verified read": it reads a page, and if the caller's check rejects
// the data, it re-reads at each vendor read-retry voltage level (SET
// FEATURES) until the data verifies. No hardware change, no Verilog:
// just software composing the five µFSMs.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/babol"
	"repro/internal/bus"
	"repro/internal/onfi"
)

// scrubBlock is a fully custom maintenance operation an SSD architect
// might invent: it reads every page of a block and reports which pages
// still verify — the building block of a background scrubber. It is
// written directly against the Ctx µFSM API to show the raw layer the
// library operations are built from.
func scrubBlock(block int, pageBytes int, verify func(page int, data []byte) bool, bad *[]int) babol.OpFunc {
	return func(ctx *babol.Ctx) error {
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		scratch, err := ctx.Scratch(pageBytes)
		if err != nil {
			return err
		}
		for p := 0; p < g.PagesPerBlk; p++ {
			// Compose the READ waveform from µFSM instructions: chip
			// select, command+address latch burst, confirm.
			ctx.Chip(bus.Mask(chip))
			var latches []onfi.Latch
			latches = append(latches, onfi.CmdLatch(onfi.CmdRead1))
			latches = append(latches, g.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: block, Page: p}})...)
			latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
			ctx.CmdAddr(latches...)
			if res := ctx.Submit(); res.Err != nil {
				return res.Err
			}
			// Poll tR out via the nested READ STATUS helper.
			for {
				s, err := babol.ReadStatus(ctx, chip)
				if err != nil {
					return err
				}
				if s&onfi.StatusRDY != 0 {
					break
				}
			}
			// Column change + transfer into our scratch window.
			cb := onfi.EncodeColAddr(0)
			ctx.CmdAddr(
				onfi.CmdLatch(onfi.CmdChangeReadCol1),
				onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]),
				onfi.CmdLatch(onfi.CmdChangeReadCol2),
			)
			ctx.ReadData(scratch.Addr, pageBytes)
			if res := ctx.Submit(); res.Err != nil {
				return res.Err
			}
			// A DRAM window is valid until the next DMA into it, so
			// look at the page through one taken after the transfer.
			data, err := ctx.Controller().DRAM().Window(scratch.Addr, pageBytes)
			if err != nil {
				return err
			}
			if !verify(p, data) {
				*bad = append(*bad, p)
			}
		}
		return nil
	}
}

func main() {
	pkg := babol.Hynix()
	pkg.RawBitErrorPer512B = 12 // an aggressive error model for the demo
	sys, err := babol.NewSystem(babol.SystemConfig{
		Package: pkg, Ways: 1, DisableCapture: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Seed a block with a known pattern, then age it badly.
	const block, pageBytes = 7, 16384
	want := bytes.Repeat([]byte{0xA5}, pageBytes)
	for p := 0; p < pkg.Geometry.PagesPerBlk; p++ {
		if err := sys.Chip(0).SeedPage(onfi.RowAddr{Block: block, Page: p}, want); err != nil {
			log.Fatal(err)
		}
	}
	sys.Chip(0).Wear(block, pkg.MaxPECycles*3/4)

	// 1. Scrub the worn block with the custom operation: most pages will
	//    fail verification at the default read voltage.
	var badPages []int
	verify := func(_ int, data []byte) bool { return bytes.Equal(data, want) }
	sys.Start(babol.OpRequest{
		Func: scrubBlock(block, pageBytes, verify, &badPages),
		Chip: 0,
		Done: func(err error) {
			if err != nil {
				log.Fatal("scrub failed: ", err)
			}
		},
	})
	sys.Run()
	fmt.Printf("scrub of worn block %d: %d/%d pages fail at default voltage\n",
		block, len(badPages), pkg.Geometry.PagesPerBlk)

	// 2. Recover one failing page with the library's READ RETRY
	//    operation, which walks the SET FEATURES voltage table.
	if len(badPages) == 0 {
		fmt.Println("nothing to recover — try a higher error rate")
		return
	}
	target := onfi.Addr{Row: onfi.RowAddr{Block: block, Page: badPages[0]}}
	start := sys.Now()
	sys.Start(babol.OpRequest{
		Func: babol.ReadWithRetry(target, 0, pageBytes, func(data []byte) bool {
			return bytes.Equal(data, want)
		}),
		Chip: 0,
		Done: func(err error) {
			if err != nil {
				log.Fatal("read retry failed: ", err)
			}
		},
	})
	sys.Run()
	got, _ := sys.DRAM().Read(0, pageBytes)
	if !bytes.Equal(got, want) {
		log.Fatal("retry returned corrupt data")
	}
	fmt.Printf("READ RETRY recovered page %d cleanly in %v (virtual)\n",
		badPages[0], sys.Now().Sub(start))
	fmt.Printf("optimal retry level for that page: %d\n",
		sys.Chip(0).OptimalRetryLevel(uint32(block*pkg.Geometry.PagesPerBlk+badPages[0])))
}
