package ssd

import (
	"repro/internal/fifo"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
)

// Sharded rigs split the drive across event-loop shards: the host
// complex (SSD assembly, FTL, HIC, ECC) is one sim.Domain on shard 0,
// and each channel (bus, LUNs, controller, firmware CPU) is a domain on
// its channel group's shard. Everything that crosses the host↔channel
// boundary funnels through this file: backend calls travel as domain
// posts with the hostHop latency, and completions post back.
// Nothing else is shared, so the shards can run on separate goroutines
// inside the cluster's conservative time windows.

// urgentSink accepts latency-critical reads for a chip whose erase is
// suspendable. A GC cycle's urgent-read queue is the same-domain one;
// the sharded eraseRelay is the cross-domain one.
type urgentSink interface {
	Push(ops.UrgentRead)
}

// shardBackend adapts one channel's backend, built on dom's kernel, for
// use by the host domain: every call posts to the channel's domain,
// every completion posts back to the host's. Call states are pooled
// host-side with their closures prebound, so the steady-state crossing
// allocates nothing.
type shardBackend struct {
	inner backend
	host  *sim.Domain
	dom   *sim.Domain
	free  []*crossCall
}

type callKind uint8

const (
	callRead callKind = iota
	callProgram
	callErase
	callCopyback
)

// crossCall carries one backend call across the host↔channel boundary
// and its completion back. States recycle through the owning
// shardBackend's free list; both ends of the pool run on the host shard.
type crossCall struct {
	b       *shardBackend
	kind    callKind
	chip    int
	row     onfi.RowAddr
	dstRow  onfi.RowAddr // copyback destination
	addr, n int
	block   int
	done    func(error)
	err     error

	startFn   func() // runs channel-side: issue on the inner backend
	finishFn  func(error)
	deliverFn func() // runs host-side: recycle, then complete
}

func (b *shardBackend) get() *crossCall {
	if c, ok := popFree(&b.free); ok {
		return c
	}
	c := &crossCall{b: b}
	c.startFn = c.start
	c.finishFn = c.finish
	c.deliverFn = c.deliver
	return c
}

func (c *crossCall) start() {
	switch c.kind {
	case callRead:
		c.b.inner.ReadPage(c.chip, c.row, c.addr, c.n, c.finishFn)
	case callProgram:
		c.b.inner.ProgramPage(c.chip, c.row, c.addr, c.n, c.finishFn)
	case callErase:
		c.b.inner.EraseBlock(c.chip, c.block, c.finishFn)
	case callCopyback:
		c.b.inner.CopybackPage(c.chip, c.row, c.dstRow, c.finishFn)
	}
}

func (c *crossCall) finish(err error) {
	c.err = err
	c.b.dom.Post(c.b.host, c.deliverFn)
}

// deliver recycles before completing, like readState.finish: a
// synchronously chained backend call reuses this state.
func (c *crossCall) deliver() {
	done, err := c.done, c.err
	c.done, c.err = nil, nil
	c.b.free = append(c.b.free, c)
	done(err)
}

func (b *shardBackend) post(c *crossCall) { b.host.Post(b.dom, c.startFn) }

func (b *shardBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	c := b.get()
	c.kind, c.chip, c.row, c.addr, c.n, c.done = callRead, chip, row, dramAddr, n, done
	b.post(c)
}

func (b *shardBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	c := b.get()
	c.kind, c.chip, c.row, c.addr, c.n, c.done = callProgram, chip, row, dramAddr, n, done
	b.post(c)
}

func (b *shardBackend) EraseBlock(chip, block int, done func(error)) {
	c := b.get()
	c.kind, c.chip, c.block, c.done = callErase, chip, block, done
	b.post(c)
}

func (b *shardBackend) CopybackPage(chip int, src, dst onfi.RowAddr, done func(error)) {
	c := b.get()
	c.kind, c.chip, c.row, c.dstRow, c.done = callCopyback, chip, src, dst, done
	b.post(c)
}

// EraseBlockInterruptible starts an interruptible erase whose urgent-read
// queue lives on the channel's domain, and hands the host a sink that
// pushes across: the synchronous next pull cannot cross domains, so next
// goes unused.
func (b *shardBackend) EraseBlockInterruptible(chip, block int, _ func() (ops.UrgentRead, bool), done func(error)) urgentSink {
	r := &eraseRelay{b: b, chip: chip}
	b.host.Post(b.dom, func() {
		b.inner.EraseBlockInterruptible(chip, block, r.q.Pop, func(err error) {
			// Urgent reads that arrived after the erase's last queue check
			// are leftovers; restart them here as ordinary channel reads
			// so they never cross back to the host unserved.
			for {
				ur, ok := r.q.Pop()
				if !ok {
					break
				}
				b.inner.ReadPage(chip, ur.Addr.Row, ur.DramAddr, ur.N, ur.Done)
			}
			r.closed = true
			b.dom.Post(b.host, func() { done(err) })
		})
	})
	return r
}

// eraseRelay is the cross-domain urgent-read funnel of one suspended
// erase. q and closed are channel-domain state, touched only inside
// posted closures; Push runs host-side.
type eraseRelay struct {
	b      *shardBackend
	chip   int
	q      fifo.Queue[ops.UrgentRead]
	closed bool
}

func (r *eraseRelay) Push(ur ops.UrgentRead) {
	hostDone := ur.Done
	b := r.b
	ur.Done = func(err error) { b.dom.Post(b.host, func() { hostDone(err) }) }
	b.host.Post(b.dom, func() {
		if r.closed {
			// The erase completed while this read was in flight to the
			// channel (the host's delete of its sink entry races the hop
			// by design); serve it as an ordinary read.
			b.inner.ReadPage(r.chip, ur.Addr.Row, ur.DramAddr, ur.N, ur.Done)
			return
		}
		r.q.Push(ur)
	})
}

// Run drives the rig to quiescence: the whole cluster for sharded rigs
// (then folds the per-domain trace buffers into the configured sinks),
// or just the kernel otherwise. Sharded rigs must run through here —
// running rig.Kernel alone would advance only the host shard.
func (r *Rig) Run() {
	if r.Cluster == nil {
		r.Kernel.Run()
		return
	}
	r.Cluster.Run()
	r.drainShardTraces()
}

// Now reports the rig's virtual time (the host shard's clock).
func (r *Rig) Now() sim.Time { return r.Kernel.Now() }

// HostTracer returns the tracer host-domain code (the HIC frontend and
// the workload engine) must emit into: the host shard's private trace
// buffer on a sharded rig — merged by Run under the (time, domain)
// discipline, so host events interleave deterministically with channel
// events at any shard count — or the rig's plain sink otherwise. nil
// when tracing is off.
func (r *Rig) HostTracer() obs.Tracer {
	if r.Cluster != nil {
		return domainTracer(r.domBufs, 0)
	}
	return r.tracer
}

// drainShardTraces k-way-merges the per-domain trace buffers into the
// rig's configured sink in (time, domain index) order. Each domain's
// buffer is already time-ordered (a kernel never runs backwards), so a
// linear merge suffices, and the domain-index tie-break makes the merged
// stream a pure function of the simulation — independent of shard count,
// like everything else. Buffers are reset afterwards so a later Run
// appends rather than replays.
func (r *Rig) drainShardTraces() {
	if r.sink == nil {
		return
	}
	idx := make([]int, len(r.domBufs))
	for {
		best := -1
		var at sim.Time
		for d, b := range r.domBufs {
			evs := b.Events()
			if idx[d] >= len(evs) {
				continue
			}
			if t := evs[idx[d]].Time; best < 0 || t < at {
				best, at = d, t
			}
		}
		if best < 0 {
			break
		}
		r.sink.Event(r.domBufs[best].Events()[idx[best]])
		idx[best]++
	}
	for _, b := range r.domBufs {
		b.Reset()
	}
}

// shardOf maps a channel to its shard under `shards` total shards (one
// host shard plus shards-1 channel shards): contiguous channel groups,
// as even as integer math allows. The mapping affects only which
// goroutine runs a channel, never the simulation's results.
func shardOf(channel, channels, shards int) int {
	if shards <= 1 {
		return 0
	}
	return 1 + channel*(shards-1)/channels
}

// domainTracer returns the tracer for one domain of a sharded rig: its
// private buffer, or nil when tracing is off.
func domainTracer(bufs []*obs.Buffer, idx int) obs.Tracer {
	if bufs == nil {
		return nil
	}
	return bufs[idx]
}
