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
func MetricsHandler(snap func() Snapshot) http.Handler { return serveJSON(snap, metricsView) }

// FTLHandler serves the FTL map-cache view of a metrics registry:
// translation hit/miss/eviction/flush totals and the derived hit rate —
// the live panel behind `babolbench -http` at /ftl. All counters stay
// zero until a rig with the map cache enabled (-mapcache) reports in.
func FTLHandler(snap func() Snapshot) http.Handler { return serveJSON(snap, ftlView) }

// TenantsHandler serves the per-tenant host-command view of a metrics
// registry: completion/failure counts, command mix, and the latency
// distribution per tenant — the live panel behind `babolbench -http`
// at /tenants. The view is empty until a workload-engine (or
// trace-replay) run reports in.
func TenantsHandler(snap func() Snapshot) http.Handler { return serveJSON(snap, tenantsView) }

// serveJSON is the one body behind every endpoint: take a snapshot,
// shape it with view, and write it as indented JSON.
func serveJSON(snap func() Snapshot, view func(Snapshot) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding errors mean the client went away; nothing to do.
		_ = enc.Encode(view(snap()))
	})
}

func tenantsView(s Snapshot) any {
	type row struct {
		Tenant string `json:"tenant"`
		TenantMetrics
	}
	var out struct {
		Tenants []row `json:"tenants,omitempty"`
	}
	for name, t := range s.Tenants {
		out.Tenants = append(out.Tenants, row{name, t})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

func ftlView(s Snapshot) any {
	return struct {
		MapCacheActive bool    `json:"map_cache_active"`
		MapHits        uint64  `json:"map_hits"`
		MapMisses      uint64  `json:"map_misses"`
		MapHitRate     float64 `json:"map_hit_rate"`
		MapEvictions   uint64  `json:"map_evictions"`
		MapFlushes     uint64  `json:"map_flushes"`
	}{s.MapCacheActive(), s.MapHits, s.MapMisses, s.MapHitRate(), s.MapEvictions, s.MapFlushes}
}

type chipWire struct {
	Channel int `json:"channel"`
	Chip    int `json:"chip"`
	ChipMetrics
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
	TxnBusTime     Histogram              `json:"txn_bus_time"`
	QueueDepth     Histogram              `json:"queue_depth"`
	OpLatency      Histogram              `json:"op_latency"`
	Channels       map[int]ChannelMetrics `json:"channels,omitempty"`
	Chips          []chipWire             `json:"chips,omitempty"`
}

func metricsView(s Snapshot) any {
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
		TxnBusTime:     s.TxnBusTime,
		QueueDepth:     s.QueueDepth,
		OpLatency:      s.OpLatency,
		Channels:       s.Channels,
	}
	for k, m := range s.Chips {
		out.Chips = append(out.Chips, chipWire{Channel: k.Channel, Chip: k.Chip, ChipMetrics: m})
	}
	sort.Slice(out.Chips, func(i, j int) bool {
		if out.Chips[i].Channel != out.Chips[j].Channel {
			return out.Chips[i].Channel < out.Chips[j].Channel
		}
		return out.Chips[i].Chip < out.Chips[j].Chip
	})
	return out
}
