package hic

import (
	"fmt"

	"repro/internal/sim"
)

// NVMe-style multi-queue frontend — the only route from a source to the
// device (nothing else in this package calls Submitter.Submit): N
// submission queues feed one device through an arbiter, the way an NVMe
// controller services per-core submission queues. Each queue has its
// own in-flight window (its "queue depth" toward the device) and, under
// weighted round-robin, a burst weight; a global cap bounds total
// outstanding commands the way a controller's command-slot pool does.
//
// Everything runs on the simulation kernel's goroutine, so the frontend
// needs no locks and its dispatch order is a pure function of the
// enqueue order — deterministic at any queue count.
//
// Completion side: the frontend interposes on each command's Done with
// a pooled slot callback, so steady-state dispatch allocates nothing
// per command (the same discipline as the closed-loop engine's slot).

// Arbitration selects the dispatch policy among submission queues.
type Arbitration uint8

const (
	// RoundRobin grants one command per eligible queue in rotation —
	// NVMe's mandatory arbitration.
	RoundRobin Arbitration = iota
	// WeightedRoundRobin grants each queue a burst of up to Weight
	// consecutive commands when its turn comes — NVMe's optional WRR
	// with each queue its own strict class.
	WeightedRoundRobin
)

func (a Arbitration) String() string {
	if a == WeightedRoundRobin {
		return "wrr"
	}
	return "rr"
}

// QueueConfig describes one submission queue.
type QueueConfig struct {
	// Depth is the queue's in-flight window toward the device: at most
	// this many of its commands are outstanding at once. Must be ≥ 1.
	Depth int
	// Weight is the queue's WRR burst length — consecutive grants it
	// may take when it holds the turn. Non-positive defaults to 1;
	// ignored under RoundRobin.
	Weight int
}

// FrontendConfig assembles a Frontend.
type FrontendConfig struct {
	Queues      []QueueConfig
	Arbitration Arbitration
	// MaxInFlight caps device-wide outstanding commands across all
	// queues; 0 means the sum of queue depths (no extra cap).
	MaxInFlight int
	// Recorder, when non-nil, captures every enqueue for later JSONL
	// export and replay (see record.go).
	Recorder *Recorder
}

// QueueStats counts one queue's lifetime activity.
type QueueStats struct {
	Enqueued   uint64 // commands accepted into the queue
	Dispatched uint64 // commands handed to the device
	Completed  uint64 // commands whose completion returned
	Failed     uint64 // completions that carried an error
}

// Frontend is the multi-queue submission/completion engine.
type Frontend struct {
	k      *sim.Kernel
	sub    Submitter
	arb    Arbitration
	queues []fqueue

	maxInFlight int
	inFlight    int

	// cur is the queue holding the arbitration turn; burstLeft is the
	// remaining grants of that turn (always 0 under plain RR, so every
	// grant rotates).
	cur       int
	burstLeft int

	free    []*fqSlot
	pumping bool
	rec     *Recorder
}

// fqueue is one submission queue: a head-indexed ring of pending
// commands (the array is reused once drained, like urgentQueue in ssd)
// plus its in-flight window accounting.
type fqueue struct {
	cfg      QueueConfig
	pending  []Command
	head     int
	inFlight int
	stats    QueueStats
}

// fqSlot carries one in-flight command's original completion callback;
// its done closure is bound once and the slot recycles through the
// frontend's free list.
type fqSlot struct {
	f     *Frontend
	queue int
	orig  func(error)
	done  func(error)
}

// NewFrontend wires a frontend over sub on kernel k.
func NewFrontend(k *sim.Kernel, sub Submitter, cfg FrontendConfig) (*Frontend, error) {
	if k == nil || sub == nil {
		return nil, fmt.Errorf("hic: frontend needs a kernel and a submitter")
	}
	if len(cfg.Queues) == 0 {
		return nil, fmt.Errorf("hic: frontend needs at least one queue")
	}
	sum := 0
	for i, qc := range cfg.Queues {
		if qc.Depth <= 0 {
			return nil, fmt.Errorf("hic: queue %d: Depth must be positive, got %d", i, qc.Depth)
		}
		sum += qc.Depth
	}
	maxIF := cfg.MaxInFlight
	if maxIF <= 0 || maxIF > sum {
		maxIF = sum
	}
	f := &Frontend{
		k: k, sub: sub, arb: cfg.Arbitration,
		queues:      make([]fqueue, len(cfg.Queues)),
		maxInFlight: maxIF,
		rec:         cfg.Recorder,
		// The rotation scan starts at cur+1, so parking cur on the last
		// queue makes the very first grant land on queue 0.
		cur: len(cfg.Queues) - 1,
	}
	for i, qc := range cfg.Queues {
		if qc.Weight <= 0 {
			qc.Weight = 1
		}
		f.queues[i].cfg = qc
	}
	return f, nil
}

// Queues reports the submission-queue count.
func (f *Frontend) Queues() int { return len(f.queues) }

// Stats returns a snapshot of one queue's counters.
func (f *Frontend) Stats(q int) QueueStats { return f.queues[q].stats }

// InFlight reports commands dispatched to the device and not yet
// completed, across all queues.
func (f *Frontend) InFlight() int { return f.inFlight }

// Pending reports commands accepted but not yet dispatched, across all
// queues.
func (f *Frontend) Pending() int {
	n := 0
	for i := range f.queues {
		n += len(f.queues[i].pending) - f.queues[i].head
	}
	return n
}

// Drained reports whether every accepted command has completed.
func (f *Frontend) Drained() bool { return f.inFlight == 0 && f.Pending() == 0 }

// Enqueue accepts a command into submission queue q. The command is
// dispatched to the device when arbitration grants it; its Done fires
// at completion as usual. Panics on an out-of-range queue index — a
// workload wiring bug, not a runtime condition.
func (f *Frontend) Enqueue(q int, cmd Command) {
	if q < 0 || q >= len(f.queues) {
		panic(fmt.Sprintf("hic: enqueue to queue %d of %d", q, len(f.queues)))
	}
	if f.rec != nil {
		f.rec.record(f.k.Now(), q, cmd)
	}
	fq := &f.queues[q]
	fq.pending = append(fq.pending, cmd)
	fq.stats.Enqueued++
	f.pump()
}

// pump dispatches while capacity allows. The pumping guard flattens
// synchronous completion chains (device completes during Submit →
// done → caller enqueues more → pump) into this one loop instead of
// recursing once per command.
func (f *Frontend) pump() {
	if f.pumping {
		return
	}
	f.pumping = true
	for f.inFlight < f.maxInFlight {
		q := f.pickQueue()
		if q < 0 {
			break
		}
		f.dispatch(q)
	}
	f.pumping = false
}

// eligible reports whether queue q can dispatch right now.
func (f *Frontend) eligible(q int) bool {
	fq := &f.queues[q]
	return fq.head < len(fq.pending) && fq.inFlight < fq.cfg.Depth
}

// pickQueue arbitrates: the current turn-holder keeps dispatching while
// it has burst credit, then the turn rotates to the next eligible queue
// (scanning cur+1..cur+n wrapping, so the turn can come straight back
// on a single busy queue). Under plain RR burst credit is always 0, so
// every grant rotates — one command per queue per turn.
func (f *Frontend) pickQueue() int {
	n := len(f.queues)
	if f.burstLeft > 0 && f.eligible(f.cur) {
		f.burstLeft--
		return f.cur
	}
	for i := 1; i <= n; i++ {
		q := (f.cur + i) % n
		if !f.eligible(q) {
			continue
		}
		f.cur = q
		f.burstLeft = 0
		if f.arb == WeightedRoundRobin {
			f.burstLeft = f.queues[q].cfg.Weight - 1
		}
		return q
	}
	return -1
}

// dispatch pops queue q's head and hands it to the device through a
// pooled completion slot.
func (f *Frontend) dispatch(q int) {
	fq := &f.queues[q]
	cmd := fq.pending[fq.head]
	fq.pending[fq.head] = Command{}
	fq.head++
	if fq.head == len(fq.pending) {
		fq.pending = fq.pending[:0]
		fq.head = 0
	}
	fq.inFlight++
	f.inFlight++
	fq.stats.Dispatched++

	sl := f.getSlot()
	sl.queue = q
	sl.orig = cmd.Done
	cmd.Done = sl.done
	f.sub.Submit(cmd)
}

func (f *Frontend) getSlot() *fqSlot {
	if n := len(f.free); n > 0 {
		sl := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return sl
	}
	sl := &fqSlot{f: f}
	sl.done = func(err error) {
		fr := sl.f
		fq := &fr.queues[sl.queue]
		fq.inFlight--
		fr.inFlight--
		fq.stats.Completed++
		if err != nil {
			fq.stats.Failed++
		}
		orig := sl.orig
		// Recycle before the host callback, like readState.finish: a
		// completion that synchronously enqueues (closed-loop tenants)
		// may reuse this slot for the new command.
		sl.orig = nil
		fr.free = append(fr.free, sl)
		if orig != nil {
			orig(err)
		}
		fr.pump()
	}
	return sl
}
