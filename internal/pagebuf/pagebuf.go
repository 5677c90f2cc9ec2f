// Package pagebuf is the simulator's page-buffer arena: a sync.Pool of
// fixed-size page payloads shared by every rig in the process, so the
// steady-state data path — NAND cell array → page register → channel →
// DRAM — recycles a bounded working set instead of allocating a fresh
// full page per READ/PROGRAM.
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
// The count is atomic, so the holders may sit on different goroutines
// (a sharded rig's host shard releases loans its channel shards made).
// The normal build compiles the checks away: Get/Bytes/Release are a
// sync.Pool hit, a field load, and an atomic decrement plus a sync.Pool
// put. The bufdebug build poisons a payload with PoisonByte when its last
// reference goes and panics on use-after-release and over-release, so
// aliasing shows up as loud 0xDB patterns (or an immediate panic) instead
// of silent cross-buffer corruption.
package pagebuf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Buf is one pooled page buffer. Handles are pooled along with their
// payloads; never use one after dropping your last reference.
type Buf struct {
	data []byte
	pool *Pool
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
	b.pool.p.Put(b)
}

// Pool hands out page buffers of one fixed size.
type Pool struct {
	size int
	p    sync.Pool
}

// NewPool builds a standalone pool of size-byte buffers. Most callers
// want For, which shares pools process-wide by size.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("pagebuf: non-positive buffer size %d", size))
	}
	pl := &Pool{size: size}
	pl.p.New = func() interface{} {
		return &Buf{data: make([]byte, size), pool: pl}
	}
	return pl
}

// Size reports the pool's buffer size in bytes.
func (p *Pool) Size() int { return p.size }

// Get borrows a buffer holding one reference. Contents are undefined.
func (p *Pool) Get() *Buf {
	b := p.p.Get().(*Buf)
	b.refs.Store(1)
	b.onGet()
	return b
}

// registry shares one Pool per buffer size across the process, so
// concurrently running rigs with the same geometry feed one arena (and
// the bufdebug build can catch cross-rig aliasing).
var (
	regMu sync.Mutex
	reg   = map[int]*Pool{}
)

// For returns the process-wide shared pool for size-byte buffers.
func For(size int) *Pool {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := reg[size]; ok {
		return p
	}
	p := NewPool(size)
	reg[size] = p
	return p
}
