// Package pagebuf is the simulator's page-buffer arena: a sync.Pool of
// fixed-size page payloads shared by every rig in the process, so the
// steady-state data path — NAND cell array → page register → channel →
// DRAM — recycles a bounded working set instead of allocating a fresh
// full page per READ/PROGRAM.
//
// # Ownership discipline
//
// A *Buf is borrowed from a Pool with Get and owned exclusively by the
// borrower until Release. The rules, enforced under `-tags bufdebug`:
//
//   - Bytes() may only be called between Get and Release. After Release
//     the handle is dead; keeping the raw []byte across a Release is an
//     aliasing bug (the next Get reuses the storage).
//   - Release must be called exactly once per Get. Double release
//     panics under bufdebug.
//   - Buffers come back from Get with undefined contents: the borrower
//     must overwrite every byte it will later read (full-page copies in
//     the LUN do; partial writers must clear the tail themselves).
//
// The normal build compiles the checks away: Get/Bytes/Release are a
// sync.Pool hit, a field load, and a sync.Pool put. The bufdebug build
// poisons released payloads with PoisonByte and panics on
// use-after-release and double-release, so aliasing shows up as loud
// 0xDB patterns (or an immediate panic) instead of silent cross-buffer
// corruption.
package pagebuf

import (
	"fmt"
	"sync"
)

// Buf is one borrowed page buffer. Handles are pooled along with their
// payloads; never retain one across Release.
type Buf struct {
	data []byte
	pool *Pool
	dbg  debugState
}

// Bytes returns the payload. The slice is only valid until Release.
func (b *Buf) Bytes() []byte {
	b.checkLive("Bytes")
	return b.data
}

// Len reports the payload size (the pool's buffer size).
func (b *Buf) Len() int { return len(b.data) }

// Release returns the buffer to its pool. The handle and any slice
// obtained from Bytes are dead afterwards.
func (b *Buf) Release() {
	b.checkLive("Release")
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

// Get borrows a buffer. Contents are undefined; the borrower owns it
// until Release.
func (p *Pool) Get() *Buf {
	b := p.p.Get().(*Buf)
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
