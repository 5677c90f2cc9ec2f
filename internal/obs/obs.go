// Package obs is the controller observability layer: a typed event
// stream emitted from the hot paths of the BABOL controller stack
// (admission, task scheduling, transaction scheduling, the hardware
// execution unit) plus an aggregating metrics registry built on it.
//
// The paper's evaluation (§VI, Figures 10–12, Table II) rests entirely
// on visibility into the controller's internals — per-chip channel
// occupancy, polling-resubmission counts, the software/hardware time
// split. This package makes that stream a first-class product of the
// simulation instead of a set of ad-hoc counters: the controller emits
// Events into a Tracer, and consumers either aggregate them (Metrics),
// persist them (JSONL), or fan them out (Multi).
//
// Tracing is strictly pay-for-what-you-use: a nil Tracer is the
// default, every emission site is guarded by a nil check, and the Event
// struct is passed by value, so the disabled path costs one branch and
// the enabled path does not allocate — through the sinks as well: a
// Buffer allocates once per 1024-event chunk, a JSONLWriter not at all
// for events whose label needs no JSON escaping, and ReadJSONL decodes
// the lines that writer produced without a per-event allocation
// (TestAllocGate* hold all three to it). Only Metrics allocates, once
// per new chip, channel, tenant or label it meets.
package obs

import "repro/internal/sim"

// Kind discriminates event types.
type Kind uint8

const (
	// KindOpAdmitted fires when an operation enters a chip slot
	// (Label is "active", "staged", or "gang").
	KindOpAdmitted Kind = iota
	// KindAdmissionWait fires when an operation parks in the admission
	// queue because no compatible slot is free.
	KindAdmissionWait
	// KindOpResumed fires when the firmware context-switches into an
	// operation coroutine.
	KindOpResumed
	// KindOpFinished fires at operation termination; Err reports whether
	// it failed and Dur is the Start→Done latency.
	KindOpFinished
	// KindTxnEnqueued fires when a transaction reaches the
	// hardware-visible queue; Depth is the queue depth after the push.
	KindTxnEnqueued
	// KindTxnPopped fires when the hardware execution unit pops the
	// queue head; Depth is the queue depth after the pop.
	KindTxnPopped
	// KindTxnExecuted fires when the execution unit has played a
	// transaction; Start/End bracket its bus phase and Dur is the
	// channel occupancy it added.
	KindTxnExecuted
	// KindGateOpened fires when a Final transaction opens a chip's
	// hardware gate, releasing a staged successor's held transaction.
	KindGateOpened
	// KindPollResubmit fires when an operation re-issues the same status
	// transaction because the last answer was "busy" (§VI-C's polling
	// resubmissions).
	KindPollResubmit
	// KindCPUCharge fires for every block of firmware work charged to
	// the CPU model; Label names the action (admit, schedule, switch,
	// submit, poll-resubmit), Cycles the cost, Dur the virtual time.
	KindCPUCharge
	// KindHWInstr fires from the execution unit for each timed µFSM
	// instruction; Label names the µFSM and Dur is its bus segment time.
	KindHWInstr
	// KindFault fires when an injected fault perturbs a NAND array
	// operation (internal/fault); Label names the campaign
	// (stuck-busy, fail-storm, ecc-burst, tr-jitter) and Chip the LUN.
	KindFault
	// KindRecovery fires when the controller or SSD takes a recovery
	// action: Label is "reset" (poll budget exhausted, RESET issued),
	// "reset-recovered", "chip-dead", "chip-offline", or "read-only".
	KindRecovery
	// KindMapCache fires from the FTL translation-page cache when the
	// map cache is enabled (MapCacheBytes > 0): Label is "hit" (the
	// LPN's translation page was resident), "miss" (a NAND read of the
	// map page was charged through the ops path; Chip is the map
	// page's modeled LUN), "evict" (the clock displaced a resident
	// page), or "flush" (the displaced page was dirty — a modeled
	// map write-back). Disabled caches emit nothing, keeping traces
	// byte-identical to pre-cache builds.
	KindMapCache
	// KindHostCmd fires from the host frontend (internal/hic's tenant
	// engine and trace replay) at each command completion: Label is the
	// tenant name (empty for anonymous traffic), Depth the submission
	// queue index, Cycles the hic command kind (0 read, 1 write,
	// 2 trim), Dur the enqueue→completion latency, and Err whether the
	// command failed. Chip is -1 (no die is attributable host-side) and
	// OpID stays 0 so span correlation and run splitting ignore these.
	KindHostCmd
)

var kindNames = [...]string{
	KindOpAdmitted:    "op-admitted",
	KindAdmissionWait: "admission-wait",
	KindOpResumed:     "op-resumed",
	KindOpFinished:    "op-finished",
	KindTxnEnqueued:   "txn-enqueued",
	KindTxnPopped:     "txn-popped",
	KindTxnExecuted:   "txn-executed",
	KindGateOpened:    "gate-opened",
	KindPollResubmit:  "poll-resubmit",
	KindCPUCharge:     "cpu-charge",
	KindHWInstr:       "hw-instr",
	KindFault:         "fault",
	KindRecovery:      "recovery",
	KindMapCache:      "map-cache",
	KindHostCmd:       "host-cmd",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one observation. Which fields are meaningful depends on
// Kind; unused fields are zero. Chip is -1 when no chip applies.
type Event struct {
	// Time is the virtual time of emission.
	Time sim.Time
	Kind Kind
	// Err marks a failed operation (KindOpFinished) or transaction
	// (KindTxnExecuted). It sits next to Kind so the two share a word.
	Err bool
	// Channel is the channel index in multi-channel assemblies, tagged
	// by OnChannel; 0 for single-channel rigs.
	Channel int
	OpID    uint64
	TxnID   uint64
	Chip    int
	// Dur is kind-dependent: CPU time for KindCPUCharge, channel
	// occupancy for KindTxnExecuted/KindHWInstr, operation latency for
	// KindOpFinished.
	Dur sim.Duration
	// Start/End bracket a transaction's bus phase (KindTxnExecuted).
	Start sim.Time
	End   sim.Time
	// Depth is the transaction queue depth after a push or pop.
	Depth int
	// Cycles is the CPU cycle cost behind Dur (KindCPUCharge).
	Cycles int64
	// Bytes is the DMA payload size (KindHWInstr data instructions).
	Bytes int
	// Label is a kind-dependent tag: slot kind, charge site, µFSM name.
	Label string
}

// Tracer receives the event stream. Implementations must not retain
// the Event beyond the call unless they copy it (it is a value, so a
// plain store is a copy). The controller stack treats a nil Tracer as
// "tracing off" and skips emission entirely.
type Tracer interface {
	Event(Event)
}

// Multi fans each event out to every non-nil tracer in order.
type Multi []Tracer

// Event implements Tracer.
func (m Multi) Event(e Event) {
	for _, t := range m {
		if t != nil {
			t.Event(e)
		}
	}
}

// OnChannel wraps t so every forwarded event carries the given channel
// index — how multi-channel assemblies keep one shared sink while
// remaining able to attribute events per channel. A nil t yields nil,
// preserving the "nil means off" convention.
func OnChannel(t Tracer, channel int) Tracer {
	if t == nil {
		return nil
	}
	return &channelTagger{t: t, channel: channel}
}

type channelTagger struct {
	t       Tracer
	channel int
}

func (c *channelTagger) Event(e Event) {
	e.Channel = c.channel
	c.t.Event(e)
}

// Func adapts a plain function to the Tracer interface.
type Func func(Event)

// Event implements Tracer.
func (f Func) Event(e Event) { f(e) }
