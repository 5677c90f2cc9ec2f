package onfi

import "fmt"

// Geometry describes the address space of one LUN. All counts are powers
// of two except PageBytes/SpareBytes which are byte sizes.
type Geometry struct {
	Planes       int // planes per LUN
	BlocksPerLUN int // total blocks in the LUN (across planes)
	PagesPerBlk  int
	PageBytes    int // main area bytes per page
	SpareBytes   int // out-of-band bytes per page
}

// The five-cycle address carries a 16-bit column and a 24-bit row
// (block*PagesPerBlk + page): a geometry past either space has pages or
// bytes no address can reach.
const (
	colSpace = 1 << 16
	rowSpace = 1 << 24
)

// Validate checks the geometry for usability.
func (g Geometry) Validate() error {
	switch {
	case g.Planes <= 0:
		return fmt.Errorf("onfi: geometry needs at least one plane, got %d", g.Planes)
	case g.BlocksPerLUN <= 0:
		return fmt.Errorf("onfi: geometry needs blocks, got %d", g.BlocksPerLUN)
	case g.BlocksPerLUN%g.Planes != 0:
		return fmt.Errorf("onfi: %d blocks not divisible by %d planes", g.BlocksPerLUN, g.Planes)
	case g.PagesPerBlk <= 0:
		return fmt.Errorf("onfi: geometry needs pages per block, got %d", g.PagesPerBlk)
	case g.PageBytes <= 0:
		return fmt.Errorf("onfi: geometry needs a page size, got %d", g.PageBytes)
	case g.SpareBytes < 0:
		return fmt.Errorf("onfi: negative spare area %d", g.SpareBytes)
	case g.PageBytes > colSpace-g.SpareBytes:
		return fmt.Errorf("onfi: %d+%d-byte page exceeds the %d columns of a 2-cycle column address", g.PageBytes, g.SpareBytes, colSpace)
	case g.BlocksPerLUN > rowSpace/g.PagesPerBlk:
		return fmt.Errorf("onfi: %d blocks of %d pages exceed the %d rows of a 3-cycle row address", g.BlocksPerLUN, g.PagesPerBlk, rowSpace)
	}
	return nil
}

// Pages reports the total number of pages in the LUN.
func (g Geometry) Pages() int { return g.BlocksPerLUN * g.PagesPerBlk }

// FullPageBytes is main + spare bytes per page.
func (g Geometry) FullPageBytes() int { return g.PageBytes + g.SpareBytes }

// Capacity reports the LUN's main-area capacity in bytes.
func (g Geometry) Capacity() int64 {
	return int64(g.BlocksPerLUN) * int64(g.PagesPerBlk) * int64(g.PageBytes)
}

// RowAddr identifies a page within a LUN: the row address of ONFI.
type RowAddr struct {
	Block int
	Page  int
}

// ColAddr is a byte offset within a page (including spare).
type ColAddr int

// Addr is a full flash address within one LUN.
type Addr struct {
	Row RowAddr
	Col ColAddr
}

// Validate checks the address against the geometry.
func (g Geometry) CheckAddr(a Addr) error {
	if a.Row.Block < 0 || a.Row.Block >= g.BlocksPerLUN {
		return fmt.Errorf("onfi: block %d out of range [0,%d)", a.Row.Block, g.BlocksPerLUN)
	}
	if a.Row.Page < 0 || a.Row.Page >= g.PagesPerBlk {
		return fmt.Errorf("onfi: page %d out of range [0,%d)", a.Row.Page, g.PagesPerBlk)
	}
	if int(a.Col) < 0 || int(a.Col) >= g.FullPageBytes() {
		return fmt.Errorf("onfi: column %d out of range [0,%d)", a.Col, g.FullPageBytes())
	}
	return nil
}

// The standard five-cycle ONFI address: two column cycles then three row
// cycles. Row cycles carry page bits in the low bits and block bits above.

// EncodeAddr produces the five address-latch bytes for a.
func (g Geometry) EncodeAddr(a Addr) [5]byte {
	row := uint32(a.Row.Block)*uint32(g.PagesPerBlk) + uint32(a.Row.Page)
	col := uint16(a.Col)
	return [5]byte{
		byte(col), byte(col >> 8),
		byte(row), byte(row >> 8), byte(row >> 16),
	}
}

// EncodeRowAddr produces the three row-address bytes (used by ERASE, which
// has no column cycles).
func (g Geometry) EncodeRowAddr(r RowAddr) [3]byte {
	row := uint32(r.Block)*uint32(g.PagesPerBlk) + uint32(r.Page)
	return [3]byte{byte(row), byte(row >> 8), byte(row >> 16)}
}

// EncodeColAddr produces the two column-address bytes (used by CHANGE READ
// COLUMN).
func EncodeColAddr(c ColAddr) [2]byte {
	return [2]byte{byte(c), byte(c >> 8)}
}

// DecodeAddr inverts EncodeAddr.
func (g Geometry) DecodeAddr(b [5]byte) Addr {
	col := ColAddr(uint16(b[0]) | uint16(b[1])<<8)
	row := uint32(b[2]) | uint32(b[3])<<8 | uint32(b[4])<<16
	return Addr{
		Row: RowAddr{Block: int(row) / g.PagesPerBlk, Page: int(row) % g.PagesPerBlk},
		Col: col,
	}
}

// DecodeRowAddr inverts EncodeRowAddr.
func (g Geometry) DecodeRowAddr(b [3]byte) RowAddr {
	row := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
	return RowAddr{Block: int(row) / g.PagesPerBlk, Page: int(row) % g.PagesPerBlk}
}

// DecodeColAddr inverts EncodeColAddr.
func DecodeColAddr(b [2]byte) ColAddr {
	return ColAddr(uint16(b[0]) | uint16(b[1])<<8)
}

// AddrLatches builds the five address latches for a full read/program
// address.
func (g Geometry) AddrLatches(a Addr) []Latch {
	bs := g.EncodeAddr(a)
	out := make([]Latch, len(bs))
	for i, b := range bs {
		out[i] = AddrLatch(b)
	}
	return out
}

// RowLatches builds the three row-address latches used by ERASE.
func (g Geometry) RowLatches(r RowAddr) []Latch {
	bs := g.EncodeRowAddr(r)
	out := make([]Latch, len(bs))
	for i, b := range bs {
		out[i] = AddrLatch(b)
	}
	return out
}

// AppendAddrLatches appends the five address latches for a full
// read/program address to dst. Passing a stack-backed dst[:0] builds the
// burst without heap allocation.
func (g Geometry) AppendAddrLatches(dst []Latch, a Addr) []Latch {
	bs := g.EncodeAddr(a)
	for _, b := range bs {
		dst = append(dst, AddrLatch(b))
	}
	return dst
}

// AppendRowLatches appends the three row-address latches used by ERASE
// to dst.
func (g Geometry) AppendRowLatches(dst []Latch, r RowAddr) []Latch {
	bs := g.EncodeRowAddr(r)
	for _, b := range bs {
		dst = append(dst, AddrLatch(b))
	}
	return dst
}

// PlaneOf reports which plane a block belongs to (blocks are interleaved
// round-robin across planes, the common NAND arrangement).
func (g Geometry) PlaneOf(block int) int { return block % g.Planes }
