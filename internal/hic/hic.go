// Package hic models the host side of the SSD: an NVMe-like command
// interface and the fio-style load generators that drive it, measuring
// bandwidth and latency — the instrument behind the paper's Figure 12.
//
// There is one way in. Every host command takes the same route,
//
//	source → Frontend.Enqueue → arbitration → Submitter.Submit
//
// and every completion lands in one function, Result.complete, which
// books the one Result type and emits the one obs.KindHostCmd event
// when the starter was handed a tracer. Two sources feed that route:
//
//   - The closed-loop engine (tenant.go) keeps a source's QueueDepth
//     commands outstanding and refills from each completion. RunTenants
//     starts one named source per TenantSpec on the caller's Frontend;
//     Run is the single fio-style stream: one anonymous source over a
//     private one-queue Frontend whose window equals the queue depth,
//     so each command is dispatched the instant it is enqueued and the
//     frontend adds no kernel event.
//   - The recorded source (record.go) is open loop: Replay enqueues a
//     Recorder's JSONL command stream at its recorded instants,
//     whatever has or has not completed.
//
// Draw rules. A closed-loop source owns one seeded RNG and draws each
// command's kind before its LPN from it, so whether the kind costs a
// draw decides every address that follows. Every golden and ledger
// stream depends on these three rules bit for bit:
//
//  1. A pure-Kind Run (ReadPercent 0, MixedRW unset) draws nothing for
//     the kind. A pure-write Run is therefore not the stream of a
//     Mix{WritePct: 100} tenant with the same seed.
//  2. A mixed Run (ReadPercent > 0 or MixedRW) draws Intn(100) for
//     every command, even at ReadPercent 100.
//  3. A tenant draws Intn(100) for every command unless its mix is
//     100% reads.
//
// Run and RunTenants apply them where they start their sources; the
// tests beside them (TestPureKindDrawsNoRNG, TestRunStreamsMatchParent,
// TestTenantDrawRule) pin them.
package hic

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind is a host command type.
type Kind uint8

const (
	// KindRead reads one logical page.
	KindRead Kind = iota
	// KindWrite writes one logical page.
	KindWrite
	// KindTrim invalidates one logical page (NVMe Dataset Management
	// deallocate): the FTL drops the mapping, a later read returns
	// zeroes, and GC no longer relocates the page.
	KindTrim
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindTrim:
		return "trim"
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	switch s {
	case "read":
		return KindRead, true
	case "write":
		return KindWrite, true
	case "trim":
		return KindTrim, true
	}
	return 0, false
}

// Command is one host request for a logical page.
type Command struct {
	Kind Kind
	LPN  int
	// Tenant attributes the command to a workload-engine tenant for
	// per-tenant accounting and trace recording; empty for anonymous
	// traffic. The device ignores it.
	Tenant string
	// Done is invoked at completion.
	Done func(error)
}

// Submitter accepts host commands; the SSD assembly implements it.
type Submitter interface {
	Submit(Command)
}

// Pattern selects the generator's address sequence.
type Pattern uint8

const (
	// Sequential issues LPNs 0,1,2,… (wrapping at the logical size).
	Sequential Pattern = iota
	// Random issues uniformly random LPNs.
	Random
	// Zipfian issues skewed random LPNs concentrated on a hot set —
	// supported by the tenant workload engine (TenantSpec), which
	// carries the skew parameters; plain Run rejects it.
	Zipfian
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case Zipfian:
		return "zipfian"
	}
	return "unknown"
}

// Workload describes one fio-like run.
type Workload struct {
	Pattern    Pattern
	Kind       Kind
	NumOps     int // total commands to issue
	QueueDepth int // outstanding commands
	// ReadPercent mixes the command stream: that percentage of commands
	// are reads, the rest writes (fio's rwmixread). The mix engages when
	// ReadPercent > 0 or MixedRW is set; otherwise the pure Kind
	// workload runs.
	ReadPercent int
	// MixedRW forces the read/write mix on even at ReadPercent == 0, so
	// a genuine 0%-read (pure-write) mix is expressible. Without it a
	// zero ReadPercent is indistinguishable from "unset, use Kind".
	MixedRW      bool
	LogicalPages int   // address-space size in pages
	Seed         int64 // RNG seed for Random
}

// Validate checks the workload description.
func (w Workload) Validate() error {
	if w.NumOps <= 0 {
		return fmt.Errorf("hic: NumOps must be positive, got %d", w.NumOps)
	}
	if w.QueueDepth <= 0 {
		return fmt.Errorf("hic: QueueDepth must be positive, got %d", w.QueueDepth)
	}
	if w.LogicalPages <= 0 {
		return fmt.Errorf("hic: LogicalPages must be positive, got %d", w.LogicalPages)
	}
	if w.ReadPercent < 0 || w.ReadPercent > 100 {
		return fmt.Errorf("hic: ReadPercent %d out of [0,100]", w.ReadPercent)
	}
	if w.Pattern == Zipfian {
		return fmt.Errorf("hic: Zipfian needs skew parameters; use the tenant engine (TenantSpec)")
	}
	return nil
}

// Result aggregates one source's run: a tenant's under RunTenants, the
// whole stream's under Run and Replay.
type Result struct {
	// Name is the tenant the source ran as; empty for Run's anonymous
	// stream and for a Replay, which pools every recorded tenant.
	Name string
	// Completed counts commands that finished successfully; Failed
	// counts commands whose Done reported an error. They are disjoint:
	// bandwidth, IOPS, and the latency distribution are computed from
	// successes only (a failed command transferred no data), while
	// Done() gives the total terminations for drain checks.
	Completed int
	Failed    int
	// Reads, Writes and Trims count the commands issued, by kind.
	Reads  int
	Writes int
	Trims  int
	Start  sim.Time
	End    sim.Time
	// latencies has its final capacity from the start (newResult);
	// growing it by appends would reallocate log(n) times mid-run.
	latencies []sim.Duration
}

// TenantResult is the Result of one RunTenants source.
type TenantResult = Result

// newResult opens the accounting of a source about to issue ops
// commands at virtual time start.
func newResult(name string, start sim.Time, ops int) *Result {
	return &Result{Name: name, Start: start, latencies: make([]sim.Duration, 0, ops)}
}

// issue books one command entering the frontend.
func (r *Result) issue(kind Kind) {
	switch kind {
	case KindRead:
		r.Reads++
	case KindWrite:
		r.Writes++
	case KindTrim:
		r.Trims++
	}
}

// complete is where every host command finishes, whichever source
// issued it. Latency runs from enqueue, so frontend queueing delay
// counts. A failure still advances End (the run ran until then) but
// stays out of the latency log and the Completed count: a failed
// command moved no data, so it must not inflate bandwidth or shift the
// percentiles. A non-nil tracer gets one obs.KindHostCmd event (Label =
// tenant, Depth = queue, Cycles = kind, Dur = latency) for the
// analyze/obs pipeline.
func (r *Result) complete(now, submitted sim.Time, queue int, tenant string, kind Kind, err error, tracer obs.Tracer) {
	lat := now.Sub(submitted)
	if err != nil {
		r.Failed++
	} else {
		r.Completed++
		r.latencies = append(r.latencies, lat)
	}
	r.End = now
	if tracer != nil {
		tracer.Event(obs.Event{
			Time: now, Kind: obs.KindHostCmd, Chip: -1,
			Label: tenant, Depth: queue,
			Cycles: int64(kind), Dur: lat,
			Err: err != nil,
		})
	}
}

// Done reports total terminated commands, successful or not — the
// number to compare against the issue count when checking a run
// drained.
func (r *Result) Done() int { return r.Completed + r.Failed }

// Elapsed is the wall (virtual) time of the run: first issue to last
// completion. A run in which nothing completed has no extent, so
// Elapsed is 0 rather than the negative End−Start of the zero End.
func (r *Result) Elapsed() sim.Duration {
	if r.End.Sub(r.Start) < 0 {
		return 0
	}
	return r.End.Sub(r.Start)
}

// BandwidthMBps reports throughput in MB/s for the given page size.
func (r *Result) BandwidthMBps(pageBytes int) float64 {
	secs := r.Elapsed().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Completed) * float64(pageBytes) / 1e6 / secs
}

// IOPS reports completed commands per second.
func (r *Result) IOPS() float64 {
	secs := r.Elapsed().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Completed) / secs
}

// LatencyPercentile returns the p-th percentile completion latency
// (0 < p ≤ 100), nearest-rank: rank ⌈p/100·n⌉.
func (r *Result) LatencyPercentile(p float64) sim.Duration {
	sorted := append([]sim.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sim.Percentile(sorted, p)
}

// MeanLatency reports the average completion latency.
func (r *Result) MeanLatency() sim.Duration {
	return sim.Mean(r.latencies)
}
