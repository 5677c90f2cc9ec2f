package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// Cluster coordinates several Kernels — shards — under a conservative
// time-window protocol, so a multi-channel simulation can run its
// channels on separate event loops (and separate goroutines) while
// producing results that are byte-identical at every shard count.
//
// The model: the simulation is split into *domains* (the host complex,
// each flash channel). Every domain lives on exactly one shard; domains
// interact ONLY by posting closures at each other with Post, which
// delivers lookahead L after the sender's current time — the modeled
// host↔channel hop latency. Because no cross-domain effect can land
// sooner than L after its cause, a window of span L can run on every
// shard concurrently with no causality violation: nothing posted inside
// a window is due inside it.
//
// Run alternates between barriers and windows:
//
//	collect outboxes → pick window start = min(next event, next post)
//	→ deliver due posts → run every shard to start+L-1 → repeat
//
// Determinism: window boundaries derive only from global event/post
// times, and deliveries are sorted by (time, source domain, source
// sequence) before insertion into the target kernel — so execution
// order is a pure function of the domain graph and L, independent of
// the domain→shard mapping, the number of shards, and whether shards
// run on worker goroutines or inline. That is the invariant the sharded
// SSD rig's determinism tests pin.
//
// The coordinator and the per-shard workers synchronize exclusively
// through the run/done channels, so every window is bracketed by
// happens-before edges: a shard owns its kernel and its domains'
// outboxes during a window, the coordinator owns everything between
// windows. No other locking exists and none is needed.
type Cluster struct {
	lookahead Duration
	kernels   []*Kernel
	domains   []*Domain
	// pending holds undelivered posts sorted by (at, src, seq).
	pending []post
	workers []clusterWorker
	// dispatched is runWindow's scratch list of busy worker indices.
	dispatched []int
	// windows and posts are atomics so monitoring goroutines can read
	// them while Run is in flight; the coordinator is the only writer.
	windows atomic.Uint64
	posts   atomic.Uint64
	// telem is the nil-check-disarmed telemetry hook: nil costs one
	// branch per window, armed costs a handful of atomic adds. See
	// ArmTelemetry in telemetry.go.
	telem *Telemetry
}

// Windows reports how many synchronization windows Run has executed —
// the cluster's overhead metric (each window is one barrier round).
// Safe to call from any goroutine, including while Run is in flight.
func (c *Cluster) Windows() uint64 { return c.windows.Load() }

// Posts reports how many cross-domain posts have been collected. Safe
// to call from any goroutine, including while Run is in flight.
func (c *Cluster) Posts() uint64 { return c.posts.Load() }

// Domain is one single-threaded region of the simulation: its events
// run on its shard's kernel, and everything it shares with other
// domains crosses via Post. Domains are created once at build time, in
// a fixed order; the creation index is the tie-break rank for posts
// delivered at equal times.
type Domain struct {
	c      *Cluster
	idx    int
	shard  int
	k      *Kernel
	seq    uint64
	outbox []post
}

// post is one cross-domain delivery: fn runs on dst's kernel at time at.
type post struct {
	at  Time
	src int
	seq uint64
	dst *Domain
	fn  func()
}

// NewCluster returns a cluster of the given number of shards, each with
// a fresh Kernel. The lookahead is the cross-domain delivery latency —
// it must be positive, since a zero-lookahead conservative protocol
// degenerates to lockstep with no window to run.
func NewCluster(shards int, lookahead Duration) *Cluster {
	if shards < 1 {
		panic(fmt.Sprintf("sim: cluster needs at least one shard, got %d", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: cluster lookahead must be positive, got %v", lookahead))
	}
	c := &Cluster{lookahead: lookahead, kernels: make([]*Kernel, shards)}
	for i := range c.kernels {
		c.kernels[i] = NewKernel()
	}
	return c
}

// Lookahead reports the cluster's cross-domain delivery latency.
func (c *Cluster) Lookahead() Duration { return c.lookahead }

// Shards reports the number of shards.
func (c *Cluster) Shards() int { return len(c.kernels) }

// Kernel returns the given shard's kernel.
func (c *Cluster) Kernel(shard int) *Kernel { return c.kernels[shard] }

// AddDomain registers a new domain on the given shard. Call during
// build, before Run; the registration order fixes the domain's delivery
// tie-break rank.
func (c *Cluster) AddDomain(shard int) *Domain {
	if shard < 0 || shard >= len(c.kernels) {
		panic(fmt.Sprintf("sim: domain on shard %d of %d", shard, len(c.kernels)))
	}
	if c.telem != nil {
		panic("sim: AddDomain after ArmTelemetry; arm after the domain graph is built")
	}
	d := &Domain{c: c, idx: len(c.domains), shard: shard, k: c.kernels[shard]}
	c.domains = append(c.domains, d)
	return d
}

// Kernel returns the kernel of the shard this domain lives on. All of
// the domain's own events schedule here.
func (d *Domain) Kernel() *Kernel { return d.k }

// Now reports the domain's current virtual time.
func (d *Domain) Now() Time { return d.k.Now() }

// Post schedules fn to run in domain `to` at Now()+lookahead — the only
// legal way for one domain to affect another. It must be called from
// d's own shard (inside one of d's events, or before Run starts).
// Steady-state posting is allocation-free once the outbox has grown to
// its high-water mark.
func (d *Domain) Post(to *Domain, fn func()) {
	d.seq++
	d.outbox = append(d.outbox, post{
		at: d.k.Now().Add(d.c.lookahead), src: d.idx, seq: d.seq, dst: to, fn: fn,
	})
}

// Run drives every shard to global quiescence: no events pending on any
// kernel and no posts in flight. Multi-shard clusters run each window
// on per-shard worker goroutines (shard 0 rides the caller's); a
// single-shard cluster runs inline with no goroutines at all.
func (c *Cluster) Run() {
	if len(c.kernels) > 1 && c.workers == nil {
		c.startWorkers()
		defer c.stopWorkers()
	}
	for {
		c.collect()
		start, ok := c.nextTime()
		if !ok {
			return
		}
		// Window [start, start+L): RunUntil's bound is inclusive, and
		// lookahead ≥ 1 tick, so the last covered instant is start+L-1.
		deadline := start.Add(c.lookahead - 1)
		c.deliver(deadline)
		c.windows.Add(1)
		if t := c.telem; t != nil {
			t.winStart = time.Now()
		}
		c.runWindow(deadline)
		if t := c.telem; t != nil {
			t.record(c)
		}
	}
}

// collect gathers every domain's outbox into the pending list and
// restores the (at, src, seq) order. Outboxes are visited in domain
// order, so the merge input is deterministic.
func (c *Cluster) collect() {
	grew := false
	for _, d := range c.domains {
		if len(d.outbox) > 0 {
			c.pending = append(c.pending, d.outbox...)
			c.posts.Add(uint64(len(d.outbox)))
			clearPosts(d.outbox)
			d.outbox = d.outbox[:0]
			grew = true
		}
	}
	if grew {
		sortPosts(c.pending)
	}
}

// nextTime finds the earliest pending instant across every shard's
// event heap and the undelivered posts.
func (c *Cluster) nextTime() (Time, bool) {
	var best Time
	ok := false
	if len(c.pending) > 0 {
		best, ok = c.pending[0].at, true
	}
	for _, k := range c.kernels {
		if at, has := k.peek(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// deliver inserts every post due by deadline into its target kernel, in
// (at, src, seq) order — the kernel's own FIFO tie-break then preserves
// that order for equal-time deliveries.
func (c *Cluster) deliver(deadline Time) {
	n := 0
	for n < len(c.pending) && c.pending[n].at <= deadline {
		p := &c.pending[n]
		p.dst.k.At(p.at, p.fn)
		n++
	}
	if n > 0 {
		rem := copy(c.pending, c.pending[n:])
		clearPosts(c.pending[rem:])
		c.pending = c.pending[:rem]
	}
}

// runWindow runs every shard that has work before the inclusive
// deadline. Shard 0 runs on the coordinator's goroutine; the rest on
// their workers. Idle shards are skipped entirely — their clocks lag
// behind, which is safe: a lagging kernel has no events by definition,
// and every future delivery lands at or after a window start, which is
// strictly after any deadline the kernel last ran to. Skipping turns
// the per-window barrier cost from O(shards) into O(busy shards).
func (c *Cluster) runWindow(deadline Time) {
	if len(c.workers) == 0 {
		c.runShard0(deadline)
		return
	}
	busy := c.dispatched[:0]
	for i, w := range c.workers {
		if at, ok := c.kernels[i+1].peek(); ok && at <= deadline {
			// The run channel is buffered: every busy worker is signaled
			// before the coordinator blocks on anything, so the workers
			// overlap each other (and shard 0) even mid-window.
			w.run <- deadline
			busy = append(busy, i)
		}
	}
	if at, ok := c.kernels[0].peek(); ok && at <= deadline {
		c.runShard0(deadline)
	}
	for _, i := range busy {
		<-c.workers[i].done
	}
	c.dispatched = busy[:0]
}

// runShard0 runs shard 0 on the coordinator's goroutine, timing the
// execution when telemetry is armed so record() can split window wall
// time into exec vs. barrier wait.
func (c *Cluster) runShard0(deadline Time) {
	if t := c.telem; t != nil {
		start := time.Now()
		c.kernels[0].RunUntil(deadline)
		t.slots[0].lastExecNs.Store(int64(time.Since(start)))
		return
	}
	c.kernels[0].RunUntil(deadline)
}

// clusterWorker owns one shard's kernel for the duration of each
// window; the channels are the only synchronization. Both are buffered
// so a window's dispatch and completion don't force extra goroutine
// round-trips on a loaded machine.
type clusterWorker struct {
	run  chan Time
	done chan struct{}
}

func (c *Cluster) startWorkers() {
	for i, k := range c.kernels[1:] {
		shard := i + 1
		w := clusterWorker{run: make(chan Time, 1), done: make(chan struct{}, 1)}
		c.workers = append(c.workers, w)
		// Each worker carries pprof labels so CPU profiles attribute
		// samples by shard and by the domains it hosts. Telemetry is
		// captured here: workers are created at the top of each Run, after
		// any ArmTelemetry call.
		var slot *telemetrySlot
		if c.telem != nil {
			slot = &c.telem.slots[shard]
		}
		labels := pprof.Labels("shard", strconv.Itoa(shard), "domain", c.domainLabel(shard))
		go func(k *Kernel, w clusterWorker, slot *telemetrySlot) {
			pprof.Do(context.Background(), labels, func(context.Context) {
				for deadline := range w.run {
					if slot != nil {
						start := time.Now()
						k.RunUntil(deadline)
						slot.lastExecNs.Store(int64(time.Since(start)))
					} else {
						k.RunUntil(deadline)
					}
					w.done <- struct{}{}
				}
			})
		}(k, w, slot)
	}
}

// domainLabel names the domains hosted on a shard for pprof labels:
// "2" for a single domain, "2-4" for a contiguous run, "1,3,5" worst
// case. Runs once per worker at startup, so the allocations don't touch
// the steady-state path.
func (c *Cluster) domainLabel(shard int) string {
	var idx []int
	for _, d := range c.domains {
		if d.shard == shard {
			idx = append(idx, d.idx)
		}
	}
	if len(idx) == 0 {
		return "none"
	}
	contiguous := true
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1]+1 {
			contiguous = false
			break
		}
	}
	if len(idx) == 1 {
		return strconv.Itoa(idx[0])
	}
	if contiguous {
		return strconv.Itoa(idx[0]) + "-" + strconv.Itoa(idx[len(idx)-1])
	}
	s := strconv.Itoa(idx[0])
	for _, d := range idx[1:] {
		s += "," + strconv.Itoa(d)
	}
	return s
}

func (c *Cluster) stopWorkers() {
	for _, w := range c.workers {
		close(w.run)
	}
	c.workers = nil
}

// clearPosts zeroes a retired span so the closures it held can be
// collected while the backing array is reused.
func clearPosts(ps []post) {
	for i := range ps {
		ps[i] = post{}
	}
}

// sortPosts restores (at, src, seq) order. Insertion sort: the pending
// list is near-sorted (each domain appends an already-ordered run) and
// small, and unlike sort.Slice this allocates nothing.
func sortPosts(ps []post) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && postAfter(&ps[j], &p) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

func postAfter(a, b *post) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	if a.src != b.src {
		return a.src > b.src
	}
	return a.seq > b.seq
}
