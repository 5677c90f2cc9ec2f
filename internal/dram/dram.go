// Package dram models the SSD's DRAM staging buffer. The Packetizer DMAs
// page data between this buffer and the flash channel; the host interface
// stages command payloads here.
//
// The model is functional (byte-accurate contents, bounds-checked windows)
// rather than timed: in the systems the paper studies, DRAM bandwidth is
// far above channel bandwidth, so DRAM access never gates the datapath.
//
// # Backing at first touch
//
// New records the size and allocates no bytes. The backing is made,
// zeroed, at the first Window or the first loan that must be
// materialized, so a rig whose reads only lend pages to their slots
// never pays for its buffer; a byte never touched reads as zero either
// way.
//
// # Loans
//
// A clean page read does not copy the page into its slot. The LUN lends
// the stored page instead (Lend): the buffer records the loan over
// [addr, addr+n) and holds a reference to the page, whose bytes are
// read-only while shared. The first accessor that touches a loaned byte
// materializes the loan, copying the page into the buffer and dropping
// the reference; a read slot released unread never pays for the copy. A
// later loan that fully covers an earlier one simply drops it, so a slot
// holds at most one stale loan. Every reader sees exactly the bytes an
// eager copy would have written.
//
// A slice from Window is valid until the next DMA that touches its
// range: a loan made afterwards lands in the loan table, not in the
// slice. Take the window after the DMA you read, and re-take it after
// every later one.
//
// The loan table and the backing are guarded by a mutex, so a sharded
// rig's shards may share one Buffer; the table allocates nothing once it
// has held its peak number of loans, and New sizes it for that peak up
// front.
//
// # Regions
//
// Carve hands out disjoint regions from the top of the buffer, one per
// call, so controllers sharing a buffer each stage their own small DMAs
// (SET FEATURES parameters) without a layout agreed in advance.
package dram

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/pagebuf"
)

// Buffer is a byte-addressable DRAM region.
type Buffer struct {
	size int

	mu sync.Mutex
	// mem is the backing, nil until the first touch (see touch).
	mem []byte
	// loans are the outstanding page loans, disjoint and sorted by addr.
	loans []loan
	// top is the lowest address Carve has handed out.
	top int
}

// loan is one page lent to [addr, end): its bytes stand for
// buf.Bytes()[:end-addr] until materialized.
type loan struct {
	addr, end int
	buf       *pagebuf.Buf
}

// loanGrain presizes the loan table at one loan per 512 bytes of
// buffer. Loans are disjoint and each covers at least a page, so a
// buffer of slots whose pages are 512 bytes or more (every preset's,
// every drive rig's) holds all its loans without the table growing,
// whatever else the buffer reserves; smaller pages still grow it. The
// table is the one thing New allocates: 24 bytes per 512, where the
// backing it defers would be all 512.
const loanGrain = 512

// New makes a buffer of the given size. Its backing is allocated at the
// first touch.
func New(size int) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("dram: non-positive size %d", size))
	}
	return &Buffer{size: size, loans: make([]loan, 0, size/loanGrain), top: size}
}

// Size reports the buffer capacity in bytes.
func (b *Buffer) Size() int { return b.size }

// Check reports whether [addr, addr+n) lies inside the buffer. An
// out-of-range window is the hardware equivalent of an AXI bus fault.
func (b *Buffer) Check(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > b.size {
		return fmt.Errorf("dram: window [%d,%d) outside buffer of %d bytes", addr, addr+n, b.size)
	}
	return nil
}

// Carve reserves the n bytes just below the last region it handed out,
// starting from the top of the buffer, and returns their address.
func (b *Buffer) Carve(n int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > b.top {
		return 0, fmt.Errorf("dram: cannot carve %d bytes below address %d", n, b.top)
	}
	b.top -= n
	return b.top, nil
}

// touch returns the backing, allocating it at the first call. Callers
// hold mu.
func (b *Buffer) touch() []byte {
	if b.mem == nil {
		b.mem = make([]byte, b.size)
	}
	return b.mem
}

// Window returns a mutable view of [addr, addr+n), materializing any
// loan it overlaps. It is the DMA target handed to the Packetizer. The
// view is valid until the next DMA that touches the range.
func (b *Buffer) Window(addr, n int) ([]byte, error) {
	if err := b.Check(addr, n); err != nil {
		return nil, err
	}
	b.mu.Lock()
	mem := b.touch()
	i, j := b.overlapping(addr, addr+n)
	b.retire(i, j, addr, addr+n, false)
	b.loans = slices.Delete(b.loans, i, j)
	b.mu.Unlock()
	return mem[addr : addr+n], nil
}

// Lend records buf's first n bytes as the contents of [addr, addr+n)
// without copying them, taking a reference to buf until the loan is
// materialized or covered by a later one. The caller keeps its own
// reference and must not change the bytes while it is shared.
func (b *Buffer) Lend(addr int, buf *pagebuf.Buf, n int) error {
	if err := b.Check(addr, n); err != nil {
		return err
	}
	if n > buf.Len() {
		return fmt.Errorf("dram: loan of %d bytes from a %d-byte page", n, buf.Len())
	}
	if n == 0 {
		return nil
	}
	buf.Retain()
	end := addr + n
	b.mu.Lock()
	i, j := b.overlapping(addr, end)
	b.retire(i, j, addr, end, true)
	if i < j {
		// Reuse the first retired entry: re-lending a slot moves nothing.
		b.loans[i] = loan{addr, end, buf}
		b.loans = slices.Delete(b.loans, i+1, j)
	} else {
		b.loans = slices.Insert(b.loans, i, loan{addr, end, buf})
	}
	b.mu.Unlock()
	return nil
}

// overlapping returns the index range [i, j) of the loans that overlap
// [lo, hi). Callers hold mu.
func (b *Buffer) overlapping(lo, hi int) (i, j int) {
	i, _ = slices.BinarySearchFunc(b.loans, lo, func(l loan, lo int) int {
		if l.end <= lo {
			return -1
		}
		return 1
	})
	j = i
	for j < len(b.loans) && b.loans[j].addr < hi {
		j++
	}
	return i, j
}

// retire ends loans[i:j], which overlap [lo, hi): each is materialized
// into the backing and its reference dropped. With cover set, a loan
// that lies wholly inside [lo, hi) is dropped without the copy — the
// caller is about to stand for every one of its bytes — and only a loan
// it covers in part makes the backing. Callers hold mu.
func (b *Buffer) retire(i, j, lo, hi int, cover bool) {
	for _, l := range b.loans[i:j] {
		if !cover || l.addr < lo || l.end > hi {
			copy(b.touch()[l.addr:l.end], l.buf.Bytes())
		}
		l.buf.Release()
	}
}

// Read copies n bytes at addr into a fresh slice.
func (b *Buffer) Read(addr, n int) ([]byte, error) {
	w, err := b.Window(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, w)
	return out, nil
}

// Write copies data into the buffer at addr.
func (b *Buffer) Write(addr int, data []byte) error {
	w, err := b.Window(addr, len(data))
	if err != nil {
		return err
	}
	copy(w, data)
	return nil
}
