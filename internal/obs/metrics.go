package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Histogram is a log2-bucketed distribution of non-negative int64
// observations (durations in picoseconds, queue depths). Bucket i
// counts values v with 2^(i-1) ≤ v < 2^i; bucket 0 counts zeros.
type Histogram struct {
	Buckets [64]uint64
	Count   uint64
	Sum     int64
	Max     int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bucketOf(v)]++
}

// bucketOf maps a non-negative observation to its log2 bucket. Zero maps
// to bucket 0 — it must not reach the bit-length path, where a naive
// "63 - leading zeros" log2 underflows to -1 and indexes out of bounds.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// ChargeStats aggregates the firmware cost of one charge site (admit,
// schedule, switch, submit, poll-resubmit) — the per-action breakdown
// behind the paper's software-environment comparison.
type ChargeStats struct {
	Count  uint64
	Cycles int64
	Time   sim.Duration
}

// ChipKey addresses per-chip metrics across channels.
type ChipKey struct {
	Channel int
	Chip    int
}

// ChipMetrics aggregates one chip's activity.
type ChipMetrics struct {
	OpsAdmitted    uint64
	OpsFinished    uint64
	OpsFailed      uint64
	AdmissionWaits uint64
	PollResubmits  uint64
	TxnsExecuted   uint64
	// BusyTime is the channel occupancy attributed to this chip's
	// transactions.
	BusyTime sim.Duration
	// Faults counts injected fault hits on this chip (KindFault);
	// Recoveries counts recovery actions taken against it (KindRecovery).
	Faults     uint64
	Recoveries uint64
}

// TenantMetrics aggregates one tenant's host-command stream from
// KindHostCmd events — the live per-tenant counters behind the
// /tenants endpoint. Failed completions stay out of Latency, matching
// the hic.Result contract.
type TenantMetrics struct {
	Queue     int
	Completed uint64
	Failed    uint64
	Reads     uint64
	Writes    uint64
	Trims     uint64
	// Latency is the enqueue→completion latency distribution of the
	// tenant's successful commands (picoseconds).
	Latency Histogram
}

// ChannelMetrics aggregates one channel's activity.
type ChannelMetrics struct {
	TxnsEnqueued uint64
	TxnsExecuted uint64
	GateOpens    uint64
	// BusyTime is the channel's total bus occupancy.
	BusyTime sim.Duration
	// QueueDepth is the transaction queue depth sampled at every
	// enqueue and pop.
	QueueDepth Histogram
}

// Snapshot is a point-in-time copy of a Metrics registry, safe to
// retain and compare. Maps are deep-copied.
type Snapshot struct {
	Events     uint64
	FirstEvent sim.Time
	LastEvent  sim.Time

	// SoftwareTime is the firmware (CPU-model) time charged across all
	// observed controllers; SoftwareCycles is the same in cycles. It is
	// the sum of every KindCPUCharge duration, which by construction
	// equals cpumodel.Stats.BusyTime.
	SoftwareTime   sim.Duration
	SoftwareCycles int64
	// HardwareTime is the channel occupancy across all observed
	// channels: the sum of every KindTxnExecuted duration, which by
	// construction equals bus.Stats.BusyTime.
	HardwareTime sim.Duration

	OpsAdmitted    uint64
	OpsResumed     uint64
	OpsFinished    uint64
	OpsFailed      uint64
	AdmissionWaits uint64
	GateOpens      uint64
	PollResubmits  uint64
	TxnsEnqueued   uint64
	TxnsPopped     uint64
	TxnsExecuted   uint64

	// Charges breaks SoftwareTime down by charge site.
	Charges map[string]ChargeStats
	// TxnBusTime is the distribution of per-transaction channel
	// occupancy (picoseconds).
	TxnBusTime Histogram
	// QueueDepth is the global transaction queue depth distribution,
	// sampled at every enqueue and pop.
	QueueDepth Histogram
	// OpLatency is the distribution of operation Start→Done latency
	// (picoseconds).
	OpLatency Histogram

	// Faults counts injected fault hits; FaultsByLabel breaks them down
	// by campaign (stuck-busy, fail-storm, ecc-burst, tr-jitter).
	Faults        uint64
	FaultsByLabel map[string]uint64
	// Recoveries counts recovery actions; RecoveriesByLabel breaks them
	// down by action (reset, reset-recovered, chip-dead, chip-offline,
	// read-only).
	Recoveries        uint64
	RecoveriesByLabel map[string]uint64

	// MapHits..MapFlushes aggregate the FTL translation-page cache's
	// KindMapCache events: hits served from resident map pages, misses
	// that charged a NAND map-page read, clock evictions, and dirty
	// evictions (modeled write-backs). All zero when the map cache is
	// disabled — no KindMapCache events enter the stream.
	MapHits      uint64
	MapMisses    uint64
	MapEvictions uint64
	MapFlushes   uint64

	// Tenants aggregates the host frontend's KindHostCmd events by
	// tenant name; empty when no tenant traffic was observed.
	Tenants map[string]TenantMetrics

	Channels map[int]ChannelMetrics
	Chips    map[ChipKey]ChipMetrics
}

// Span is the virtual time covered by the observed events.
func (s Snapshot) Span() sim.Duration { return s.LastEvent.Sub(s.FirstEvent) }

// MapCacheActive reports whether the stream carried any FTL map-cache
// activity — the gate for conditional report sections, so traces from
// cache-disabled runs render byte-identically to pre-cache builds.
func (s Snapshot) MapCacheActive() bool {
	return s.MapHits+s.MapMisses+s.MapEvictions+s.MapFlushes > 0
}

// MapHitRate reports map-cache hits / (hits + misses), or 0 before any
// translation traffic.
func (s Snapshot) MapHitRate() float64 {
	total := s.MapHits + s.MapMisses
	if total == 0 {
		return 0
	}
	return float64(s.MapHits) / float64(total)
}

// SoftwareShare is SoftwareTime / (SoftwareTime + HardwareTime) — the
// Table II-style decomposition of where a configuration's time goes.
// It is 0 when nothing was observed.
func (s Snapshot) SoftwareShare() float64 {
	total := s.SoftwareTime + s.HardwareTime
	if total <= 0 {
		return 0
	}
	return float64(s.SoftwareTime) / float64(total)
}

// ChannelIdle reports how long a channel sat idle within the observed
// span.
func (s Snapshot) ChannelIdle(channel int) sim.Duration {
	idle := s.Span() - s.Channels[channel].BusyTime
	if idle < 0 {
		idle = 0
	}
	return idle
}

// String summarizes the snapshot.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d span=%v sw=%v hw=%v sw%%=%.1f ops=%d/%d-failed txns=%d polls=%d waits=%d",
		s.Events, s.Span(), s.SoftwareTime, s.HardwareTime, 100*s.SoftwareShare(),
		s.OpsFinished, s.OpsFailed, s.TxnsExecuted, s.PollResubmits, s.AdmissionWaits)
	if s.Faults > 0 || s.Recoveries > 0 {
		fmt.Fprintf(&b, " faults=%d recoveries=%d", s.Faults, s.Recoveries)
	}
	if len(s.Charges) > 0 {
		labels := make([]string, 0, len(s.Charges))
		for l := range s.Charges {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			c := s.Charges[l]
			fmt.Fprintf(&b, "\n  %-14s n=%-7d cycles=%-10d time=%v", l, c.Count, c.Cycles, c.Time)
		}
	}
	return b.String()
}

// Metrics aggregates the event stream into counters and histograms. It
// implements Tracer, so it plugs directly into core.Config.Tracer (or
// an ssd.BuildConfig), and it can also replay a recorded JSONL stream
// offline. Like the rest of the simulation it is single-goroutine:
// feed and snapshot it from the kernel's goroutine.
type Metrics struct {
	events     uint64
	firstEvent sim.Time
	lastEvent  sim.Time

	softwareTime   sim.Duration
	softwareCycles int64
	hardwareTime   sim.Duration

	opsAdmitted    uint64
	opsResumed     uint64
	opsFinished    uint64
	opsFailed      uint64
	admissionWaits uint64
	gateOpens      uint64
	pollResubmits  uint64
	txnsEnqueued   uint64
	txnsPopped     uint64
	txnsExecuted   uint64

	charges    map[string]ChargeStats
	txnBusTime Histogram
	queueDepth Histogram
	opLatency  Histogram

	faults     uint64
	faultsBy   map[string]uint64
	recoveries uint64
	recovsBy   map[string]uint64

	mapHits      uint64
	mapMisses    uint64
	mapEvictions uint64
	mapFlushes   uint64

	tenants  map[string]*TenantMetrics
	channels map[int]*ChannelMetrics
	chips    map[ChipKey]*ChipMetrics
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		charges:  make(map[string]ChargeStats),
		faultsBy: make(map[string]uint64),
		recovsBy: make(map[string]uint64),
		tenants:  make(map[string]*TenantMetrics),
		channels: make(map[int]*ChannelMetrics),
		chips:    make(map[ChipKey]*ChipMetrics),
	}
}

// Event implements Tracer.
func (m *Metrics) Event(e Event) {
	if m.events == 0 || e.Time < m.firstEvent {
		m.firstEvent = e.Time
	}
	if e.Time > m.lastEvent {
		m.lastEvent = e.Time
	}
	m.events++

	switch e.Kind {
	case KindOpAdmitted:
		m.opsAdmitted++
		m.chip(e).OpsAdmitted++
	case KindAdmissionWait:
		m.admissionWaits++
		m.chip(e).AdmissionWaits++
	case KindOpResumed:
		m.opsResumed++
	case KindOpFinished:
		m.opsFinished++
		cp := m.chip(e)
		cp.OpsFinished++
		if e.Err {
			m.opsFailed++
			cp.OpsFailed++
		}
		m.opLatency.Observe(int64(e.Dur))
	case KindTxnEnqueued:
		m.txnsEnqueued++
		m.queueDepth.Observe(int64(e.Depth))
		ch := m.channel(e)
		ch.TxnsEnqueued++
		ch.QueueDepth.Observe(int64(e.Depth))
	case KindTxnPopped:
		m.txnsPopped++
		m.queueDepth.Observe(int64(e.Depth))
		m.channel(e).QueueDepth.Observe(int64(e.Depth))
	case KindTxnExecuted:
		m.txnsExecuted++
		m.hardwareTime += e.Dur
		m.txnBusTime.Observe(int64(e.Dur))
		ch := m.channel(e)
		ch.TxnsExecuted++
		ch.BusyTime += e.Dur
		cp := m.chip(e)
		cp.TxnsExecuted++
		cp.BusyTime += e.Dur
	case KindGateOpened:
		m.gateOpens++
		m.channel(e).GateOpens++
	case KindPollResubmit:
		m.pollResubmits++
		m.chip(e).PollResubmits++
	case KindCPUCharge:
		m.softwareTime += e.Dur
		m.softwareCycles += e.Cycles
		c := m.charges[e.Label]
		c.Count++
		c.Cycles += e.Cycles
		c.Time += e.Dur
		m.charges[e.Label] = c
	case KindHWInstr:
		// Instruction-level detail stays in the raw stream; the
		// transaction events already carry the aggregate occupancy.
	case KindFault:
		m.faults++
		m.faultsBy[e.Label]++
		m.chip(e).Faults++
	case KindRecovery:
		m.recoveries++
		m.recovsBy[e.Label]++
		m.chip(e).Recoveries++
	case KindMapCache:
		switch e.Label {
		case "hit":
			m.mapHits++
		case "miss":
			m.mapMisses++
		case "evict":
			m.mapEvictions++
		case "flush":
			m.mapFlushes++
		}
	case KindHostCmd:
		t := m.tenants[e.Label]
		if t == nil {
			t = &TenantMetrics{}
			m.tenants[e.Label] = t
		}
		t.Queue = e.Depth
		if e.Err {
			t.Failed++
		} else {
			t.Completed++
			t.Latency.Observe(int64(e.Dur))
		}
		switch e.Cycles {
		case 0:
			t.Reads++
		case 1:
			t.Writes++
		case 2:
			t.Trims++
		}
	}
}

func (m *Metrics) chip(e Event) *ChipMetrics {
	k := ChipKey{Channel: e.Channel, Chip: e.Chip}
	c := m.chips[k]
	if c == nil {
		c = &ChipMetrics{}
		m.chips[k] = c
	}
	return c
}

func (m *Metrics) channel(e Event) *ChannelMetrics {
	c := m.channels[e.Channel]
	if c == nil {
		c = &ChannelMetrics{}
		m.channels[e.Channel] = c
	}
	return c
}

// Snapshot returns a deep copy of the aggregated state for
// programmatic reads.
func (m *Metrics) Snapshot() Snapshot {
	out := Snapshot{
		Events:            m.events,
		FirstEvent:        m.firstEvent,
		LastEvent:         m.lastEvent,
		SoftwareTime:      m.softwareTime,
		SoftwareCycles:    m.softwareCycles,
		HardwareTime:      m.hardwareTime,
		OpsAdmitted:       m.opsAdmitted,
		OpsResumed:        m.opsResumed,
		OpsFinished:       m.opsFinished,
		OpsFailed:         m.opsFailed,
		AdmissionWaits:    m.admissionWaits,
		GateOpens:         m.gateOpens,
		PollResubmits:     m.pollResubmits,
		TxnsEnqueued:      m.txnsEnqueued,
		TxnsPopped:        m.txnsPopped,
		TxnsExecuted:      m.txnsExecuted,
		TxnBusTime:        m.txnBusTime,
		QueueDepth:        m.queueDepth,
		OpLatency:         m.opLatency,
		Faults:            m.faults,
		Recoveries:        m.recoveries,
		MapHits:           m.mapHits,
		MapMisses:         m.mapMisses,
		MapEvictions:      m.mapEvictions,
		MapFlushes:        m.mapFlushes,
		Charges:           make(map[string]ChargeStats, len(m.charges)),
		FaultsByLabel:     make(map[string]uint64, len(m.faultsBy)),
		RecoveriesByLabel: make(map[string]uint64, len(m.recovsBy)),
		Tenants:           make(map[string]TenantMetrics, len(m.tenants)),
		Channels:          make(map[int]ChannelMetrics, len(m.channels)),
		Chips:             make(map[ChipKey]ChipMetrics, len(m.chips)),
	}
	for k, v := range m.charges {
		out.Charges[k] = v
	}
	for k, v := range m.faultsBy {
		out.FaultsByLabel[k] = v
	}
	for k, v := range m.recovsBy {
		out.RecoveriesByLabel[k] = v
	}
	for k, v := range m.tenants {
		out.Tenants[k] = *v
	}
	for k, v := range m.channels {
		out.Channels[k] = *v
	}
	for k, v := range m.chips {
		out.Chips[k] = *v
	}
	return out
}

// Replay feeds a recorded event slice through the registry.
func (m *Metrics) Replay(events []Event) {
	for i := range events {
		m.Event(events[i])
	}
}
