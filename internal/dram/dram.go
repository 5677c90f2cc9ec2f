// Package dram models the SSD's DRAM staging buffer. The Packetizer DMAs
// page data between this buffer and the flash channel; the host interface
// stages command payloads here.
//
// The model is functional (byte-accurate contents, bounds-checked windows)
// rather than timed: in the systems the paper studies, DRAM bandwidth is
// far above channel bandwidth, so DRAM access never gates the datapath.
package dram

import "fmt"

// Buffer is a byte-addressable DRAM region.
type Buffer struct {
	mem []byte
}

// New allocates a buffer of the given size.
func New(size int) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("dram: non-positive size %d", size))
	}
	return &Buffer{mem: make([]byte, size)}
}

// Size reports the buffer capacity in bytes.
func (b *Buffer) Size() int { return len(b.mem) }

// Window returns a mutable view of [addr, addr+n). It is the DMA target
// handed to the Packetizer. Out-of-range windows return an error — the
// hardware equivalent of an AXI bus fault.
func (b *Buffer) Window(addr, n int) ([]byte, error) {
	if addr < 0 || n < 0 || addr+n > len(b.mem) {
		return nil, fmt.Errorf("dram: window [%d,%d) outside buffer of %d bytes", addr, addr+n, len(b.mem))
	}
	return b.mem[addr : addr+n], nil
}

// Read copies n bytes at addr into a fresh slice. Hot paths use ReadInto
// or View instead.
func (b *Buffer) Read(addr, n int) ([]byte, error) {
	w, err := b.Window(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, w)
	return out, nil
}

// ReadInto copies len(dst) bytes at addr into dst — the destination-
// passing sibling of Read for callers that own a buffer.
func (b *Buffer) ReadInto(dst []byte, addr int) error {
	w, err := b.Window(addr, len(dst))
	if err != nil {
		return err
	}
	copy(dst, w)
	return nil
}

// View returns a borrowed read-only view of [addr, addr+n). Unlike Read
// it never copies; unlike Window the caller promises not to write
// through it. The view stays coherent with the buffer: it is only valid
// until the next DMA or host write that overlaps the range (in virtual
// time: until the channel's next granted transaction may touch it), so
// consume or copy it before yielding the CPU.
func (b *Buffer) View(addr, n int) ([]byte, error) {
	return b.Window(addr, n)
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

// Fill sets [addr, addr+n) to v.
func (b *Buffer) Fill(addr, n int, v byte) error {
	w, err := b.Window(addr, n)
	if err != nil {
		return err
	}
	for i := range w {
		w[i] = v
	}
	return nil
}
