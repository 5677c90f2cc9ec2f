package hic

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Many-tenant workload engine: each tenant is an independent closed-loop
// traffic source — its own address-space slice, access pattern (including
// zipfian hot sets), read/write/trim mix, queue-depth window, and on/off
// burst modulation — feeding one submission queue of a Frontend. The
// engine is the "millions of users" stand-in: it synthesizes the
// contention a multi-tenant host inflicts on a drive, and reports each
// tenant's latency distribution separately so QoS interference is
// measurable, Copycat-style, instead of vanishing into an aggregate.
//
// Determinism: every tenant draws from its own seeded RNG, all issue
// decisions run on the kernel goroutine, and completions emit
// obs.KindHostCmd events through the caller's tracer — so a tenant run
// is a pure function of (specs, rig), reproducible from its seeds.

// Mix is a tenant's command mix in percent. The zero Mix means 100%
// reads; otherwise the three fields must sum to 100.
type Mix struct {
	ReadPct  int
	WritePct int
	TrimPct  int
}

// withDefaults maps the zero Mix to pure reads.
func (m Mix) withDefaults() Mix {
	if m == (Mix{}) {
		return Mix{ReadPct: 100}
	}
	return m
}

// Validate checks the mix sums to 100 with no negative share.
func (m Mix) Validate() error {
	m = m.withDefaults()
	if m.ReadPct < 0 || m.WritePct < 0 || m.TrimPct < 0 {
		return fmt.Errorf("hic: negative mix share %+v", m)
	}
	if m.ReadPct+m.WritePct+m.TrimPct != 100 {
		return fmt.Errorf("hic: mix %+v does not sum to 100", m)
	}
	return nil
}

func (m Mix) String() string {
	m = m.withDefaults()
	return fmt.Sprintf("r%d/w%d/t%d", m.ReadPct, m.WritePct, m.TrimPct)
}

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	Name string
	// Queue is the Frontend submission queue this tenant feeds.
	Queue int
	// QueueDepth is the tenant's own outstanding-command window (its
	// io_depth), independent of the queue's device-side window.
	QueueDepth int
	NumOps     int
	// Pattern is Sequential, Random, or Zipfian over the tenant's slice.
	Pattern Pattern
	// ZipfS is the zipfian skew (> 1); 0 defaults to 1.2.
	ZipfS float64
	// ZipfHot bounds the zipfian hot set to the first ZipfHot pages of
	// the slice; 0 means the whole slice.
	ZipfHot int
	// Mix is the read/write/trim split; the zero Mix is pure reads.
	Mix Mix
	// SliceStart/SlicePages carve the tenant's address-space slice
	// [SliceStart, SliceStart+SlicePages).
	SliceStart int
	SlicePages int
	// BurstOn/BurstOff modulate arrivals: issue during BurstOn, idle for
	// BurstOff, repeating. Both zero means always on.
	BurstOn  sim.Duration
	BurstOff sim.Duration
	Seed     int64
}

// Validate checks the spec against a frontend with queues queue slots.
func (t TenantSpec) Validate(queues int) error {
	if t.Name == "" {
		return fmt.Errorf("hic: tenant needs a name")
	}
	if t.Queue < 0 || t.Queue >= queues {
		return fmt.Errorf("hic: tenant %s: queue %d out of %d", t.Name, t.Queue, queues)
	}
	if t.QueueDepth <= 0 {
		return fmt.Errorf("hic: tenant %s: QueueDepth must be positive, got %d", t.Name, t.QueueDepth)
	}
	if t.NumOps <= 0 {
		return fmt.Errorf("hic: tenant %s: NumOps must be positive, got %d", t.Name, t.NumOps)
	}
	if t.SliceStart < 0 || t.SlicePages <= 0 {
		return fmt.Errorf("hic: tenant %s: bad slice [%d,+%d)", t.Name, t.SliceStart, t.SlicePages)
	}
	if err := t.Mix.Validate(); err != nil {
		return fmt.Errorf("hic: tenant %s: %w", t.Name, err)
	}
	if t.Pattern == Zipfian && t.ZipfS != 0 && t.ZipfS <= 1 {
		return fmt.Errorf("hic: tenant %s: ZipfS must be > 1, got %v", t.Name, t.ZipfS)
	}
	if t.ZipfHot < 0 || t.ZipfHot > t.SlicePages {
		return fmt.Errorf("hic: tenant %s: ZipfHot %d outside slice of %d", t.Name, t.ZipfHot, t.SlicePages)
	}
	if t.BurstOff > 0 && t.BurstOn <= 0 {
		return fmt.Errorf("hic: tenant %s: BurstOff without BurstOn never issues", t.Name)
	}
	if t.BurstOn < 0 || t.BurstOff < 0 {
		return fmt.Errorf("hic: tenant %s: negative burst durations", t.Name)
	}
	return nil
}

// TenantResult is one tenant's per-run accounting: the shared Result
// (success/failure counts, latency distribution) plus the issued
// command mix.
type TenantResult struct {
	Name string
	Result
	Reads  int
	Writes int
	Trims  int
}

// tenantRun is one tenant's live state: RNGs, issue bookkeeping, and
// its pooled queue-depth slots.
type tenantRun struct {
	k      *sim.Kernel
	f      *Frontend
	spec   TenantSpec
	tracer obs.Tracer
	res    *TenantResult
	rng    *rand.Rand
	zipf   *rand.Zipf
	start  sim.Time
	seq    int
	issued int
}

// tenantSlot is one outstanding-command slot of a tenant: submission
// timestamp, issued kind, and once-bound issue/done callbacks.
type tenantSlot struct {
	t         *tenantRun
	submitted sim.Time
	kind      Kind
	issue     func()
	done      func(error)
}

// RunTenants starts every tenant's closed loops against frontend f and
// returns per-tenant results, populated once the caller runs the kernel
// to completion — check Done() == NumOps per tenant.
// Completions emit obs.KindHostCmd events into tracer (Label = tenant,
// Depth = queue, Cycles = command kind, Dur = latency); nil disables
// emission.
func RunTenants(k *sim.Kernel, f *Frontend, tenants []TenantSpec, tracer obs.Tracer) ([]*TenantResult, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("hic: no tenants")
	}
	for _, spec := range tenants {
		if err := spec.Validate(f.Queues()); err != nil {
			return nil, err
		}
	}
	results := make([]*TenantResult, len(tenants))
	for i, spec := range tenants {
		spec.Mix = spec.Mix.withDefaults()
		res := &TenantResult{Name: spec.Name}
		res.Start = k.Now()
		res.latencies = make([]sim.Duration, 0, spec.NumOps)
		results[i] = res
		t := &tenantRun{
			k: k, f: f, spec: spec, tracer: tracer, res: res,
			rng:   rand.New(rand.NewSource(spec.Seed)),
			start: k.Now(),
		}
		if spec.Pattern == Zipfian {
			s := spec.ZipfS
			if s == 0 {
				s = 1.2
			}
			hot := spec.ZipfHot
			if hot == 0 {
				hot = spec.SlicePages
			}
			t.zipf = rand.NewZipf(t.rng, s, 1, uint64(hot-1))
		}
		depth := spec.QueueDepth
		if depth > spec.NumOps {
			depth = spec.NumOps
		}
		slots := make([]tenantSlot, depth)
		for j := range slots {
			sl := &slots[j]
			sl.t = t
			sl.issue = func() { t.issueOn(sl) }
			sl.done = func(err error) { t.complete(sl, err) }
		}
		for j := range slots {
			slots[j].issue()
		}
	}
	return results, nil
}

// burstDelay reports how long until the tenant's next ON window; 0
// means it is issuing now.
func (t *tenantRun) burstDelay() sim.Duration {
	on, off := t.spec.BurstOn, t.spec.BurstOff
	if off == 0 {
		return 0
	}
	period := on + off
	phase := sim.Duration(t.k.Now().Sub(t.start)) % period
	if phase < on {
		return 0
	}
	return period - phase
}

// issueOn issues slot sl's next command, deferring to the next burst ON
// window when the tenant is in its OFF phase.
func (t *tenantRun) issueOn(sl *tenantSlot) {
	if t.issued >= t.spec.NumOps {
		return
	}
	if d := t.burstDelay(); d > 0 {
		t.k.After(d, sl.issue)
		return
	}
	t.issued++
	sl.kind = t.nextKind()
	switch sl.kind {
	case KindRead:
		t.res.Reads++
	case KindWrite:
		t.res.Writes++
	case KindTrim:
		t.res.Trims++
	}
	sl.submitted = t.k.Now()
	t.f.Enqueue(t.spec.Queue, Command{
		Kind: sl.kind, LPN: t.nextLPN(), Tenant: t.spec.Name, Done: sl.done,
	})
}

// complete books one completion: latency measured from enqueue (so
// frontend queueing delay counts — that is the contention being
// studied), failure split per the Result contract, and one host-cmd
// event for the analyze/obs pipeline.
func (t *tenantRun) complete(sl *tenantSlot, err error) {
	now := t.k.Now()
	if err != nil {
		t.res.Failed++
	} else {
		t.res.Completed++
		t.res.latencies = append(t.res.latencies, now.Sub(sl.submitted))
	}
	t.res.End = now
	if t.tracer != nil {
		t.tracer.Event(obs.Event{
			Time: now, Kind: obs.KindHostCmd, Chip: -1,
			Label: t.spec.Name, Depth: t.spec.Queue,
			Cycles: int64(sl.kind), Dur: now.Sub(sl.submitted),
			Err: err != nil,
		})
	}
	sl.issue()
}

// nextKind draws from the tenant's mix.
func (t *tenantRun) nextKind() Kind {
	m := t.spec.Mix
	if m.ReadPct == 100 {
		return KindRead
	}
	v := t.rng.Intn(100)
	switch {
	case v < m.ReadPct:
		return KindRead
	case v < m.ReadPct+m.WritePct:
		return KindWrite
	default:
		return KindTrim
	}
}

// nextLPN draws the next address from the tenant's slice.
func (t *tenantRun) nextLPN() int {
	switch t.spec.Pattern {
	case Sequential:
		lpn := t.spec.SliceStart + t.seq%t.spec.SlicePages
		t.seq++
		return lpn
	case Zipfian:
		// The hot set is the first ZipfHot pages of the slice: rank 0 is
		// the hottest page, matching rand.Zipf's rank-ordered output.
		return t.spec.SliceStart + int(t.zipf.Uint64())
	default:
		return t.spec.SliceStart + t.rng.Intn(t.spec.SlicePages)
	}
}
