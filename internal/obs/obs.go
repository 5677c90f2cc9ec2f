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
// Buffer allocates once per chunk, chunks doubling from 1024 events up
// to 16×1024 (48 for a 727k-event trace), a JSONLWriter not at all
// for events whose label needs no JSON escaping, and ReadJSONL once for
// the whole trace — one slice of exactly as many events as the input
// has lines, one read of the input unless it is a *bytes.Buffer, and
// one string per distinct label (TestAllocGate* hold all three to it).
// Only Metrics allocates, once per new chip, channel, tenant or label
// it meets.
//
// An Event is 88 bytes (TestEventSize): a traced run holds each one in
// its Buffer and again in the slice ReadJSONL returns, so its size is
// most of what tracing costs in memory.
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
	// The pin-level kinds below are what a logic analyzer on the channel
	// sees, one event per bus segment, emitted by bus.Channel (SetTracer)
	// and rendered, exported and timing-checked by internal/wave. Start
	// and End bracket the segment, Time is when the channel emitted it,
	// Chip is the target chip and OpID the operation. Metrics and the
	// analyzer skip them (PinLevel).
	//
	// KindBusCmdAddr is a command/address latch burst: Label summarizes
	// it ("READ.1 ADDR×5 READ.2"), Bytes counts its latch cycles (one
	// byte each on DQ), and Depth is 1 when its last latch is a confirm
	// command that starts array work (READ.2, PROGRAM.2, ERASE.2, the
	// cache confirms), else 0.
	KindBusCmdAddr
	// KindBusDataOut is a data burst from a LUN to the controller; Start
	// is after the tWHR command-to-data gap and Bytes is the payload.
	KindBusDataOut
	// KindBusDataIn is a data burst from the controller to the selected
	// LUNs (Chip is the lowest); Bytes is the payload.
	KindBusDataIn
	// KindBusWait is a Timer µFSM pause that holds the channel; Chip is -1.
	KindBusWait
	// KindDieBusy is the die-internal busy window (tR, tPROG, tBERS,
	// tRST; Label names it) that a latch burst started: the R/B# line.
	// It follows its KindBusCmdAddr and does not occupy the channel.
	KindDieBusy
	// KindHostEnqueue is one host command entering a submission queue,
	// emitted by the hic frontend in enqueue order when its config sets
	// Record: the recording `babolbench -record` writes and hic.Replay
	// reads. Time is the enqueue instant, Label the tenant, Depth the
	// submission queue index and Cycles the command kind, as on
	// KindHostCmd; TxnID carries the LPN (no transaction exists
	// host-side) and Chip is -1. Metrics and the analyzer skip it.
	KindHostEnqueue
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
	KindBusCmdAddr:    "bus-cmd-addr",
	KindBusDataOut:    "bus-data-out",
	KindBusDataIn:     "bus-data-in",
	KindBusWait:       "bus-wait",
	KindDieBusy:       "die-busy",
	KindHostEnqueue:   "host-enqueue",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// PinLevel reports whether k is one of the channel's pin-level kinds,
// KindBusCmdAddr through KindDieBusy.
func (k Kind) PinLevel() bool { return k >= KindBusCmdAddr && k <= KindDieBusy }

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) { return kindOf(s) }

// kindOf is KindFromString for both decode paths: encoding/json's
// string and the canonical line's bytes, which the switch compares
// without converting. TestKindStringRoundTrip holds it to kindNames.
func kindOf[T string | []byte](name T) (Kind, bool) {
	switch string(name) {
	case "op-admitted":
		return KindOpAdmitted, true
	case "admission-wait":
		return KindAdmissionWait, true
	case "op-resumed":
		return KindOpResumed, true
	case "op-finished":
		return KindOpFinished, true
	case "txn-enqueued":
		return KindTxnEnqueued, true
	case "txn-popped":
		return KindTxnPopped, true
	case "txn-executed":
		return KindTxnExecuted, true
	case "gate-opened":
		return KindGateOpened, true
	case "poll-resubmit":
		return KindPollResubmit, true
	case "cpu-charge":
		return KindCPUCharge, true
	case "hw-instr":
		return KindHWInstr, true
	case "fault":
		return KindFault, true
	case "recovery":
		return KindRecovery, true
	case "map-cache":
		return KindMapCache, true
	case "host-cmd":
		return KindHostCmd, true
	case "bus-cmd-addr":
		return KindBusCmdAddr, true
	case "bus-data-out":
		return KindBusDataOut, true
	case "bus-data-in":
		return KindBusDataIn, true
	case "bus-wait":
		return KindBusWait, true
	case "die-busy":
		return KindDieBusy, true
	case "host-enqueue":
		return KindHostEnqueue, true
	}
	return 0, false
}

// Event is one observation. Which fields are meaningful depends on
// Kind; unused fields are zero. Chip is -1 when no chip applies.
//
// The fields are ordered widest first and the small ones are as narrow
// as their ranges allow, so an Event is 88 bytes (TestEventSize): Chip
// is -1..15 (a bus.ChipMask has 16 bits), Bytes at most a page plus its
// spare area or a latch-cycle count, Depth a queue depth, a submission
// queue index or 0/1.
type Event struct {
	// Time is the virtual time of emission.
	Time  sim.Time
	OpID  uint64
	TxnID uint64
	// Dur is kind-dependent: CPU time for KindCPUCharge, channel
	// occupancy for KindTxnExecuted/KindHWInstr, operation latency for
	// KindOpFinished.
	Dur sim.Duration
	// Start/End bracket a transaction's bus phase (KindTxnExecuted) or
	// one pin-level segment.
	Start sim.Time
	End   sim.Time
	// Cycles is the CPU cycle cost behind Dur (KindCPUCharge).
	Cycles int64
	// Label is a kind-dependent tag: slot kind, charge site, µFSM name.
	Label string
	// Depth is the transaction queue depth after a push or pop (see
	// KindHostCmd and KindBusCmdAddr for theirs).
	Depth int32
	// Bytes is the DMA payload size (KindHWInstr data instructions), a
	// data burst's payload, or a latch burst's cycle count.
	Bytes int32
	Chip  int16
	// Channel is the channel index in multi-channel assemblies, tagged
	// by OnChannel; 0 for single-channel rigs.
	Channel int16
	Kind    Kind
	// Err marks a failed operation (KindOpFinished) or transaction
	// (KindTxnExecuted).
	Err bool
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
	return &channelTagger{t: t, channel: int16(channel)}
}

type channelTagger struct {
	t       Tracer
	channel int16
}

func (c *channelTagger) Event(e Event) {
	e.Channel = c.channel
	c.t.Event(e)
}

// Func adapts a plain function to the Tracer interface.
type Func func(Event)

// Event implements Tracer.
func (f Func) Event(e Event) { f(e) }
