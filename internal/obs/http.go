package obs

import (
	"encoding/json"
	"net/http"
	"sort"

	"repro/internal/sim"
)

// MetricsHandler serves point-in-time JSON snapshots of a metrics
// registry — the expvar-style live-introspection endpoint behind
// `babolbench -http`. snap is called once per request; hand it
// (*SyncMetrics).Snapshot when the registry is fed concurrently.
//
// The wire form flattens the registry for curl/jq consumption: the
// ChipKey-keyed map becomes a sorted array (struct keys do not marshal),
// histograms carry their summary statistics plus non-zero log2 buckets,
// and durations are reported in picoseconds exactly as recorded.
func MetricsHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding errors mean the client went away; nothing to do.
		_ = enc.Encode(snapshotWire(snap()))
	})
}

// FTLHandler serves the FTL map-cache view of a metrics registry:
// translation hit/miss/eviction/flush totals and the derived hit rate —
// the live panel behind `babolbench -http` at /ftl. snap is called once
// per request; hand it (*SyncMetrics).Snapshot when rigs feed it
// concurrently. All counters stay zero until a rig with the map cache
// enabled (-mapcache) reports in.
func FTLHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ftlWire(snap()))
	})
}

// TenantsHandler serves the per-tenant host-command view of a metrics
// registry: completion/failure counts, command mix, and the latency
// distribution per tenant — the live panel behind `babolbench -http`
// at /tenants. snap is called once per request; hand it
// (*SyncMetrics).Snapshot when rigs feed it concurrently. The view is
// empty until a workload-engine (or trace-replay) run reports in.
func TenantsHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tenantsWire(snap()))
	})
}

type tenantRowWire struct {
	Tenant    string   `json:"tenant"`
	Queue     int      `json:"queue"`
	Completed uint64   `json:"completed"`
	Failed    uint64   `json:"failed"`
	Reads     uint64   `json:"reads"`
	Writes    uint64   `json:"writes"`
	Trims     uint64   `json:"trims"`
	Latency   histWire `json:"latency"`
}

type tenantsViewWire struct {
	Tenants []tenantRowWire `json:"tenants,omitempty"`
}

func tenantsWire(s Snapshot) tenantsViewWire {
	var out tenantsViewWire
	for name, t := range s.Tenants {
		out.Tenants = append(out.Tenants, tenantRowWire{
			Tenant: name, Queue: t.Queue,
			Completed: t.Completed, Failed: t.Failed,
			Reads: t.Reads, Writes: t.Writes, Trims: t.Trims,
			Latency: histogramWire(t.Latency),
		})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

type ftlViewWire struct {
	MapCacheActive bool    `json:"map_cache_active"`
	MapHits        uint64  `json:"map_hits"`
	MapMisses      uint64  `json:"map_misses"`
	MapHitRate     float64 `json:"map_hit_rate"`
	MapEvictions   uint64  `json:"map_evictions"`
	MapFlushes     uint64  `json:"map_flushes"`
}

func ftlWire(s Snapshot) ftlViewWire {
	return ftlViewWire{
		MapCacheActive: s.MapCacheActive(),
		MapHits:        s.MapHits,
		MapMisses:      s.MapMisses,
		MapHitRate:     s.MapHitRate(),
		MapEvictions:   s.MapEvictions,
		MapFlushes:     s.MapFlushes,
	}
}

// histWire is the wire form of a Histogram: summary statistics plus the
// non-zero buckets, keyed by bucket index.
type histWire struct {
	Count   uint64         `json:"count"`
	Sum     int64          `json:"sum"`
	Max     int64          `json:"max"`
	Mean    float64        `json:"mean"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

func histogramWire(h Histogram) histWire {
	out := histWire{Count: h.Count, Sum: h.Sum, Max: h.Max, Mean: h.Mean()}
	for i, n := range h.Buckets {
		if n != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]uint64)
			}
			out.Buckets[i] = n
		}
	}
	return out
}

type chipWire struct {
	Channel int `json:"channel"`
	Chip    int `json:"chip"`
	ChipMetrics
}

type channelWire struct {
	TxnsEnqueued uint64       `json:"TxnsEnqueued"`
	TxnsExecuted uint64       `json:"TxnsExecuted"`
	GateOpens    uint64       `json:"GateOpens"`
	BusyTime     sim.Duration `json:"BusyTime"`
	QueueDepth   histWire     `json:"QueueDepth"`
}

type snapWire struct {
	Events         uint64                 `json:"events"`
	FirstEvent     sim.Time               `json:"first_event_ps"`
	LastEvent      sim.Time               `json:"last_event_ps"`
	SpanPs         sim.Duration           `json:"span_ps"`
	SoftwareTimePs sim.Duration           `json:"software_time_ps"`
	SoftwareCycles int64                  `json:"software_cycles"`
	HardwareTimePs sim.Duration           `json:"hardware_time_ps"`
	SoftwareShare  float64                `json:"software_share"`
	OpsAdmitted    uint64                 `json:"ops_admitted"`
	OpsResumed     uint64                 `json:"ops_resumed"`
	OpsFinished    uint64                 `json:"ops_finished"`
	OpsFailed      uint64                 `json:"ops_failed"`
	AdmissionWaits uint64                 `json:"admission_waits"`
	GateOpens      uint64                 `json:"gate_opens"`
	PollResubmits  uint64                 `json:"poll_resubmits"`
	TxnsEnqueued   uint64                 `json:"txns_enqueued"`
	TxnsPopped     uint64                 `json:"txns_popped"`
	TxnsExecuted   uint64                 `json:"txns_executed"`
	Charges        map[string]ChargeStats `json:"charges,omitempty"`
	TxnBusTime     histWire               `json:"txn_bus_time"`
	QueueDepth     histWire               `json:"queue_depth"`
	OpLatency      histWire               `json:"op_latency"`
	Channels       map[int]channelWire    `json:"channels,omitempty"`
	Chips          []chipWire             `json:"chips,omitempty"`
}

func snapshotWire(s Snapshot) snapWire {
	out := snapWire{
		Events:         s.Events,
		FirstEvent:     s.FirstEvent,
		LastEvent:      s.LastEvent,
		SpanPs:         s.Span(),
		SoftwareTimePs: s.SoftwareTime,
		SoftwareCycles: s.SoftwareCycles,
		HardwareTimePs: s.HardwareTime,
		SoftwareShare:  s.SoftwareShare(),
		OpsAdmitted:    s.OpsAdmitted,
		OpsResumed:     s.OpsResumed,
		OpsFinished:    s.OpsFinished,
		OpsFailed:      s.OpsFailed,
		AdmissionWaits: s.AdmissionWaits,
		GateOpens:      s.GateOpens,
		PollResubmits:  s.PollResubmits,
		TxnsEnqueued:   s.TxnsEnqueued,
		TxnsPopped:     s.TxnsPopped,
		TxnsExecuted:   s.TxnsExecuted,
		Charges:        s.Charges,
		TxnBusTime:     histogramWire(s.TxnBusTime),
		QueueDepth:     histogramWire(s.QueueDepth),
		OpLatency:      histogramWire(s.OpLatency),
	}
	if len(s.Channels) > 0 {
		out.Channels = make(map[int]channelWire, len(s.Channels))
		for ch, m := range s.Channels {
			out.Channels[ch] = channelWire{
				TxnsEnqueued: m.TxnsEnqueued, TxnsExecuted: m.TxnsExecuted,
				GateOpens: m.GateOpens, BusyTime: m.BusyTime,
				QueueDepth: histogramWire(m.QueueDepth),
			}
		}
	}
	if len(s.Chips) > 0 {
		for k, m := range s.Chips {
			out.Chips = append(out.Chips, chipWire{Channel: k.Channel, Chip: k.Chip, ChipMetrics: m})
		}
		sort.Slice(out.Chips, func(i, j int) bool {
			if out.Chips[i].Channel != out.Chips[j].Channel {
				return out.Chips[i].Channel < out.Chips[j].Channel
			}
			return out.Chips[i].Chip < out.Chips[j].Chip
		})
	}
	return out
}
