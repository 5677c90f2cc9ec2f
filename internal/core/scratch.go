package core

import (
	"fmt"

	"repro/internal/dram"
)

// scratchSize is the DRAM each controller carves from the top of the
// buffer for its small DMA staging (SET FEATURES parameters and the
// like): the first controller on a buffer takes its top 64 KiB (a
// quarter of a smaller buffer), the next the region below, and so on.
const scratchSize = 64 << 10

// Scratch is a small controller-owned DRAM staging window.
type Scratch struct {
	// Addr is the window's DRAM address, usable in WriteData/ReadData.
	Addr int
	// Bytes is a view of the window for staging outbound bytes. Like any
	// DRAM window it is valid until the next DMA into it: read inbound
	// bytes through a window taken after their transfer.
	Bytes []byte
}

// scratchRing hands out small windows from a fixed region, recycling
// space in FIFO order. Windows are short-lived: they only need to stay
// valid until the transaction that references them executes, and the
// ring is far larger than the transaction queue's aggregate demand.
type scratchRing struct {
	mem  *dram.Buffer
	base int
	size int
	next int
}

func newScratchRing(mem *dram.Buffer) (*scratchRing, error) {
	size := min(scratchSize, mem.Size()/4)
	base, err := mem.Carve(size)
	if err != nil {
		return nil, fmt.Errorf("core: scratch region: %w", err)
	}
	return &scratchRing{mem: mem, base: base, size: size}, nil
}

func (r *scratchRing) alloc(n int) (Scratch, error) {
	if n <= 0 || n > r.size {
		return Scratch{}, fmt.Errorf("core: scratch alloc of %d bytes (ring %d)", n, r.size)
	}
	if r.next+n > r.size {
		r.next = 0 // wrap
	}
	addr := r.base + r.next
	r.next += n
	w, err := r.mem.Window(addr, n)
	if err != nil {
		return Scratch{}, err
	}
	return Scratch{Addr: addr, Bytes: w}, nil
}

// Controller returns the controller running this operation, giving
// operations access to channel timing and configuration.
func (x *Ctx) Controller() *Controller { return x.ctrl }

// Scratch allocates a short-lived DRAM staging window for outbound
// parameter bytes (e.g. SET FEATURES values). The window remains valid
// until well after the referencing transaction executes.
func (x *Ctx) Scratch(n int) (Scratch, error) {
	return x.ctrl.scratch.alloc(n)
}
