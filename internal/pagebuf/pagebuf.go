// Package pagebuf is the simulator's page-buffer arena. Each NAND LUN
// owns one Pool of its full page size, so the steady-state data path —
// NAND cell array → page register → channel → DRAM — recycles the LUN's
// own pages instead of allocating a fresh full page per READ/PROGRAM.
// Rigs, and the LUNs within one rig, share nothing.
//
// # Slabs and the free list
//
// A Pool is a LIFO free list over pages carved from slabs. When the list
// is empty, Get takes the next page of the current slab, and when the
// slab is used up it makes another: one []Buf of handles and one []byte
// of payloads. Slabs double from one page up to slabBytes, so a LUN that
// stores eight pages carves about eight, and pages larger than slabBytes
// stay one per slab. Each payload is cut with a full slice expression
// (cap == Size()), so no append or poison through one page reaches its
// neighbour. Released pages go back on the list and the pool never frees
// them, so no garbage collection can empty it: a warmed LUN's page
// traffic allocates nothing, whatever the heap does.
//
// The list sits behind a mutex. A rig on one kernel takes it
// uncontended; it is there because a sharded rig's host shard can drop
// the last reference to a page its channel shard lent.
//
// # Ownership by references
//
// A *Buf comes from Get holding one reference, and every holder of the
// handle owns one: a LUN's stored page, the page register aliasing it,
// and each DRAM slot a clean read lent it to. Retain adds a reference,
// Release drops one, and the buffer returns to its pool when the last
// one goes. The rules, enforced under `-tags bufdebug`:
//
//   - Bytes() may only be called while the caller holds a reference.
//     After its last Release the handle is dead; keeping the raw []byte
//     across it is an aliasing bug (the next Get reuses the storage).
//   - Release must be called exactly once per Get or Retain. Releasing
//     a dead buffer panics under bufdebug.
//   - A buffer shared by several references is read-only: whoever needs
//     to change the bytes copies them out first (a program installs a
//     fresh buffer instead of rewriting the stored one).
//   - Buffers come back from Get with undefined contents: the borrower
//     must overwrite every byte it will later read (full-page copies in
//     the LUN do; partial writers must clear the tail themselves).
//
// The count is atomic, so the holders may sit on different goroutines.
// The normal build compiles the checks away: Get/Bytes/Release are a
// list pop, a field load, and an atomic decrement plus a list push. The
// bufdebug build poisons a payload with PoisonByte when its last
// reference goes and panics on use-after-release and over-release, so
// aliasing shows up as loud 0xDB patterns (or an immediate panic) instead
// of silent cross-buffer corruption.
package pagebuf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// slabBytes caps a slab's payload: 28 pages of 576 B, and one page of
// anything over 16 KiB.
const slabBytes = 16 << 10

// Buf is one page buffer of a Pool. Handles are recycled along with
// their payloads; never use one after dropping your last reference.
type Buf struct {
	data []byte
	pool *Pool
	next *Buf // free-list link, set only while the buffer is free
	refs atomic.Int32
	dbg  debugState
}

// Bytes returns the payload. The slice is only valid while the caller
// holds a reference.
func (b *Buf) Bytes() []byte {
	b.checkLive("Bytes")
	return b.data
}

// Len reports the payload size (the pool's buffer size).
func (b *Buf) Len() int { return len(b.data) }

// Retain adds a reference: the buffer stays out of the pool until this
// one is released too.
func (b *Buf) Retain() {
	b.checkLive("Retain")
	b.refs.Add(1)
}

// Release drops one reference and returns the buffer to its pool when it
// was the last. The handle and any slice obtained from Bytes are dead to
// the caller afterwards.
func (b *Buf) Release() {
	b.checkLive("Release")
	if b.refs.Add(-1) > 0 {
		return
	}
	b.onRelease()
	p := b.pool
	p.mu.Lock()
	b.next, p.free = p.free, b
	p.mu.Unlock()
}

// Pool hands out page buffers of one fixed size.
type Pool struct {
	size int
	mu   sync.Mutex
	free *Buf // the LIFO free list
	// slab holds the current slab's handles not yet handed out; its
	// payloads start at data[0].
	slab []Buf
	data []byte
	// slabPages is the page count of the next slab.
	slabPages int
}

// NewPool builds an empty pool of size-byte buffers.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("pagebuf: non-positive buffer size %d", size))
	}
	return &Pool{size: size, slabPages: 1}
}

// Size reports the pool's buffer size in bytes.
func (p *Pool) Size() int { return p.size }

// Get borrows a buffer holding one reference: the last one released, or
// a fresh page of the current slab. Contents are undefined.
func (p *Pool) Get() *Buf {
	p.mu.Lock()
	b := p.free
	if b != nil {
		p.free, b.next = b.next, nil
	} else {
		b = p.carve()
	}
	p.mu.Unlock()
	b.refs.Store(1)
	b.onGet()
	return b
}

// carve hands out the current slab's next page, making a slab twice the
// last one's size (up to slabBytes) when it is used up.
func (p *Pool) carve() *Buf {
	if len(p.slab) == 0 {
		n := p.slabPages
		p.slabPages = max(1, min(2*n, slabBytes/p.size))
		p.slab = make([]Buf, n)
		p.data = make([]byte, n*p.size)
	}
	b := &p.slab[0]
	b.data, b.pool = p.data[:p.size:p.size], p
	p.slab, p.data = p.slab[1:], p.data[p.size:]
	return b
}
