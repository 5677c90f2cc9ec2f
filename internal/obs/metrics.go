package obs

import (
	"encoding/json"
	"maps"
	"math/bits"

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

// MarshalJSON writes the histogram's wire form: its summary statistics
// plus the non-zero buckets, keyed by bucket index.
func (h Histogram) MarshalJSON() ([]byte, error) {
	var buckets map[int]uint64
	for i, n := range h.Buckets {
		if n != 0 {
			if buckets == nil {
				buckets = make(map[int]uint64)
			}
			buckets[i] = n
		}
	}
	return json.Marshal(struct {
		Count   uint64         `json:"count"`
		Sum     int64          `json:"sum"`
		Max     int64          `json:"max"`
		Mean    float64        `json:"mean"`
		Buckets map[int]uint64 `json:"buckets,omitempty"`
	}{h.Count, h.Sum, h.Max, h.Mean(), buckets})
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
	Queue     int    `json:"queue"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Trims     uint64 `json:"trims"`
	// Latency is the enqueue→completion latency distribution of the
	// tenant's successful commands (picoseconds).
	Latency Histogram `json:"latency"`
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

// Metrics aggregates the event stream into counters and histograms. It
// implements Tracer, so it plugs directly into core.Config.Tracer (or
// an ssd.BuildConfig), and it can also replay a recorded JSONL stream
// offline. Like the rest of the simulation it is single-goroutine:
// feed and snapshot it from the kernel's goroutine.
type Metrics struct {
	// s aggregates in place; its four keyed maps stay nil here and
	// are filled from the pointer maps below when Snapshot copies it.
	s        Snapshot
	charges  map[string]*ChargeStats
	tenants  map[string]*TenantMetrics
	channels map[int]*ChannelMetrics
	chips    map[ChipKey]*ChipMetrics
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		s: Snapshot{
			FaultsByLabel:     make(map[string]uint64),
			RecoveriesByLabel: make(map[string]uint64),
		},
		charges:  make(map[string]*ChargeStats),
		tenants:  make(map[string]*TenantMetrics),
		channels: make(map[int]*ChannelMetrics),
		chips:    make(map[ChipKey]*ChipMetrics),
	}
}

// Event implements Tracer.
func (m *Metrics) Event(e Event) { m.add(&e) }

func (m *Metrics) add(e *Event) {
	if e.Kind.PinLevel() {
		// Pin-level detail is for the waveform views; a trace with and
		// without it aggregates the same.
		return
	}
	s := &m.s
	if s.Events == 0 || e.Time < s.FirstEvent {
		s.FirstEvent = e.Time
	}
	if e.Time > s.LastEvent {
		s.LastEvent = e.Time
	}
	s.Events++

	switch e.Kind {
	case KindOpAdmitted:
		s.OpsAdmitted++
		m.chip(e).OpsAdmitted++
	case KindAdmissionWait:
		s.AdmissionWaits++
		m.chip(e).AdmissionWaits++
	case KindOpResumed:
		s.OpsResumed++
	case KindOpFinished:
		s.OpsFinished++
		cp := m.chip(e)
		cp.OpsFinished++
		if e.Err {
			s.OpsFailed++
			cp.OpsFailed++
		}
		s.OpLatency.Observe(int64(e.Dur))
	case KindTxnEnqueued:
		s.TxnsEnqueued++
		s.QueueDepth.Observe(int64(e.Depth))
		ch := m.channel(e)
		ch.TxnsEnqueued++
		ch.QueueDepth.Observe(int64(e.Depth))
	case KindTxnPopped:
		s.TxnsPopped++
		s.QueueDepth.Observe(int64(e.Depth))
		m.channel(e).QueueDepth.Observe(int64(e.Depth))
	case KindTxnExecuted:
		s.TxnsExecuted++
		s.HardwareTime += e.Dur
		s.TxnBusTime.Observe(int64(e.Dur))
		ch := m.channel(e)
		ch.TxnsExecuted++
		ch.BusyTime += e.Dur
		cp := m.chip(e)
		cp.TxnsExecuted++
		cp.BusyTime += e.Dur
	case KindGateOpened:
		s.GateOpens++
		m.channel(e).GateOpens++
	case KindPollResubmit:
		s.PollResubmits++
		m.chip(e).PollResubmits++
	case KindCPUCharge:
		s.SoftwareTime += e.Dur
		s.SoftwareCycles += e.Cycles
		c := entry(m.charges, e.Label)
		c.Count++
		c.Cycles += e.Cycles
		c.Time += e.Dur
	case KindHWInstr:
		// Instruction-level detail stays in the raw stream; the
		// transaction events already carry the aggregate occupancy.
	case KindFault:
		s.Faults++
		s.FaultsByLabel[e.Label]++
		m.chip(e).Faults++
	case KindRecovery:
		s.Recoveries++
		s.RecoveriesByLabel[e.Label]++
		m.chip(e).Recoveries++
	case KindMapCache:
		switch e.Label {
		case "hit":
			s.MapHits++
		case "miss":
			s.MapMisses++
		case "evict":
			s.MapEvictions++
		case "flush":
			s.MapFlushes++
		}
	case KindHostCmd:
		t := entry(m.tenants, e.Label)
		t.Queue = int(e.Depth)
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

func (m *Metrics) chip(e *Event) *ChipMetrics {
	return entry(m.chips, ChipKey{Channel: int(e.Channel), Chip: int(e.Chip)})
}

func (m *Metrics) channel(e *Event) *ChannelMetrics { return entry(m.channels, int(e.Channel)) }

// entry returns m[k], creating a zero value on first use.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// Snapshot returns a deep copy of the aggregated state for
// programmatic reads.
func (m *Metrics) Snapshot() Snapshot {
	out := m.s
	out.Charges = values(m.charges)
	out.FaultsByLabel = maps.Clone(m.s.FaultsByLabel)
	out.RecoveriesByLabel = maps.Clone(m.s.RecoveriesByLabel)
	out.Tenants = values(m.tenants)
	out.Channels = values(m.channels)
	out.Chips = values(m.chips)
	return out
}

// values copies a pointer map into a value map.
func values[K comparable, V any](m map[K]*V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = *v
	}
	return out
}

// Replay feeds a recorded event slice through the registry.
func (m *Metrics) Replay(events []Event) {
	for i := range events {
		m.add(&events[i])
	}
}
