// Package hwctrl is the baseline the paper compares BABOL against: a
// hand-built, hardware-only channel controller in the style of the
// synchronous design of Figure 4 and the Cosmos+ OpenSSD's asynchronous
// controller. Every operation is a dedicated finite-state machine with
// one instance per LUN; a hardware arbiter grants the channel among the
// FSMs that want it.
//
// Being hardware, the controller has no software costs: its only latency
// is a fixed arbiter reaction time, and it waits on each LUN's dedicated
// R/B# ready/busy pin instead of polling READ STATUS over the channel.
// That is exactly the advantage (and the inflexibility) BABOL trades
// against.
//
// The operation FSMs are written as explicit state tables on purpose:
// they mirror the structure of the Verilog implementations they stand in
// for, and internal/loc counts their lines for Table II.
package hwctrl

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// reactionTime is the hardware arbiter's grant latency: the clock cycles
// a synthesized arbiter needs to detect channel vacancy and select the
// next FSM (a few cycles at FPGA fabric speed).
const reactionTime = 100 * sim.Nanosecond

// Kind selects one of the controller's hard-wired operations.
type Kind uint8

const (
	// KindRead is a full page READ (command, R/B wait, column change,
	// transfer to DRAM).
	KindRead Kind = iota
	// KindProgram is a PAGE PROGRAM from DRAM.
	KindProgram
	// KindErase is a BLOCK ERASE.
	KindErase
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "READ"
	case KindProgram:
		return "PROGRAM"
	default:
		return "ERASE"
	}
}

// Request asks the controller to run one operation against one LUN.
type Request struct {
	Kind     Kind
	Addr     onfi.Addr
	DRAMAddr int
	N        int
	Done     func(error)
}

// Stats counts controller activity.
type Stats struct {
	OpsCompleted uint64
	OpsFailed    uint64
	Grants       uint64
}

// Controller is the hardware-only channel controller.
type Controller struct {
	k   *sim.Kernel
	ch  *bus.Channel
	mem *dram.Buffer

	fsms    []*opFSM
	rrNext  int
	armed   bool
	granted bool

	// armFn and grantFn are arm and the armed grant bound once, so
	// scheduling an arbitration allocates nothing.
	armFn   func()
	grantFn func()

	stats Stats
}

// New builds a controller with one operation-FSM slot per attached chip,
// exactly as Figure 4 draws it.
func New(k *sim.Kernel, ch *bus.Channel, mem *dram.Buffer) *Controller {
	c := &Controller{k: k, ch: ch, mem: mem}
	c.armFn = c.arm
	c.grantFn = c.armedGrant
	for i := 0; i < ch.Chips(); i++ {
		f := &opFSM{ctrl: c, lun: i}
		f.completeFn = f.complete
		f.rbReadyFn = f.rbReady
		c.fsms = append(c.fsms, f)
	}
	return c
}

// Channel returns the controller's channel.
func (c *Controller) Channel() *bus.Channel { return c.ch }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Submit queues a request on the target LUN's operation FSM. Each FSM
// holds a small request FIFO, as the hardware would in a BRAM.
func (c *Controller) Submit(lun int, req Request) error {
	if lun < 0 || lun >= len(c.fsms) {
		return fmt.Errorf("hwctrl: LUN %d out of range [0,%d)", lun, len(c.fsms))
	}
	f := c.fsms[lun]
	f.push(req)
	if f.state == stIdle {
		f.loadNext()
	}
	c.arm()
	return nil
}

// Pending reports queued plus in-flight requests.
func (c *Controller) Pending() int {
	n := 0
	for _, f := range c.fsms {
		n += len(f.queue) - f.head
		if f.state != stIdle {
			n++
		}
	}
	return n
}

// arm schedules an arbiter grant once the channel frees, if any FSM
// wants the bus.
func (c *Controller) arm() {
	if c.armed || c.granted {
		return
	}
	want := false
	for _, f := range c.fsms {
		if f.wantsBus {
			want = true
			break
		}
	}
	if !want {
		return
	}
	c.armed = true
	at := c.k.Now()
	if c.ch.FreeAt() > at {
		at = c.ch.FreeAt()
	}
	c.k.At(at.Add(reactionTime), c.grantFn)
}

// armedGrant is the arbiter's scheduled grant.
func (c *Controller) armedGrant() {
	c.armed = false
	c.grant()
}

// grant picks the next FSM and runs its bus step. Command-issue states
// win over data transfers: an issue latch lasts well under a
// microsecond and starts a long LUN-internal wait, so letting it jump
// ahead of 80-µs transfers keeps every LUN busy (the same reason the
// Ozone-style controllers issue new operations eagerly). Ties are
// broken round-robin. The granted FSM issues however many back-to-back
// segments its current transaction needs (a transaction monopolizes the
// channel), then releases.
func (c *Controller) grant() {
	if c.granted {
		return
	}
	n := len(c.fsms)
	for i := 0; i < n; i++ {
		f := c.fsms[(c.rrNext+i)%n]
		if f.wantsBus && f.state.isIssue() {
			c.runGranted(f, (c.rrNext+i+1)%n)
			return
		}
	}
	for i := 0; i < n; i++ {
		f := c.fsms[(c.rrNext+i)%n]
		if f.wantsBus {
			c.runGranted(f, (c.rrNext+i+1)%n)
			return
		}
	}
}

// runGranted executes one FSM's bus step with the channel granted.
func (c *Controller) runGranted(f *opFSM, nextRR int) {
	c.rrNext = nextRR
	c.granted = true
	c.stats.Grants++
	f.wantsBus = false
	end, err := f.busStep()
	c.granted = false
	if err != nil {
		f.fail(err)
	} else if end > c.k.Now() {
		// Re-arbitrate when this FSM's segments drain.
		c.k.At(end, c.armFn)
	}
	c.arm()
}
