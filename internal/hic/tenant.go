package hic

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The closed-loop engine: each source is an independent traffic
// generator — its own address-space slice, access pattern (including
// zipfian hot sets), read/write/trim mix, queue-depth window, and on/off
// burst modulation — feeding one submission queue of a Frontend. Run
// starts one anonymous source; RunTenants starts one per tenant, the
// "millions of users" stand-in: it synthesizes the contention a
// multi-tenant host inflicts on a drive, and reports each tenant's
// latency distribution separately so QoS interference is measurable,
// Copycat-style, instead of vanishing into an aggregate.
//
// Determinism: every source draws from its own seeded RNG, all issue
// decisions run on the kernel goroutine, and completions emit
// obs.KindHostCmd events through the caller's tracer — so a run is a
// pure function of (specs, rig), reproducible from its seeds.

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

// source is one closed-loop source's live state: its RNGs, issue
// bookkeeping, and the Result it books into.
type source struct {
	k    *sim.Kernel
	f    *Frontend
	spec TenantSpec
	// fixed sources issue only kind and never draw for it; the others
	// draw every command's kind from spec.Mix (the package comment's
	// draw rules).
	fixed  bool
	kind   Kind
	tracer obs.Tracer
	res    *Result
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    int
	issued int
}

// slot is one outstanding-command slot of a source: submission
// timestamp, issued kind, and issue/done callbacks bound once and reused
// for every command the slot carries, so steady-state issue allocates
// nothing per command.
type slot struct {
	submitted sim.Time
	kind      Kind
	issue     func()
	done      func(error)
}

// Run drives the workload against sub on kernel k and returns the result
// once the caller runs the kernel to completion. The returned Result is
// only fully populated after every command finished (check Done()).
//
// The stream is one anonymous source (Tenant == "") on a private
// one-queue Frontend whose window is the workload's queue depth: the
// source never has more outstanding than the window admits, so every
// command is dispatched at its enqueue instant.
func Run(k *sim.Kernel, sub Submitter, w Workload) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	f, err := NewFrontend(k, sub, FrontendConfig{Queues: []QueueConfig{{Depth: w.QueueDepth}}})
	if err != nil {
		return nil, err
	}
	// Draw rules 1 and 2: the mix engages on ReadPercent > 0 and then
	// draws for every command; a pure-Kind workload leaves the RNG to the
	// addresses.
	return start(k, f, TenantSpec{
		QueueDepth: w.QueueDepth, NumOps: w.NumOps,
		Pattern: w.Pattern, SlicePages: w.LogicalPages, Seed: w.Seed,
		Mix: Mix{ReadPct: w.ReadPercent, WritePct: 100 - w.ReadPercent},
	}, w.ReadPercent == 0, w.Kind, nil), nil
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
		// Draw rule 3: only an all-read tenant skips the kind draw.
		results[i] = start(k, f, spec, spec.Mix.ReadPct == 100, KindRead, tracer)
	}
	return results, nil
}

// start launches one source on f and issues its first window.
func start(k *sim.Kernel, f *Frontend, spec TenantSpec, fixed bool, kind Kind, tracer obs.Tracer) *Result {
	s := &source{
		k: k, f: f, spec: spec, fixed: fixed, kind: kind, tracer: tracer,
		res: newResult(spec.Name, k.Now(), spec.NumOps),
		rng: rand.New(rand.NewSource(spec.Seed)),
	}
	if spec.Pattern == Zipfian {
		zs := spec.ZipfS
		if zs == 0 {
			zs = 1.2
		}
		hot := spec.ZipfHot
		if hot == 0 {
			hot = spec.SlicePages
		}
		s.zipf = rand.NewZipf(s.rng, zs, 1, uint64(hot-1))
	}
	slots := make([]slot, min(spec.QueueDepth, spec.NumOps))
	for i := range slots {
		sl := &slots[i]
		sl.issue = func() { s.issueOn(sl) }
		sl.done = func(err error) {
			s.res.complete(s.k.Now(), sl.submitted, s.spec.Queue, s.spec.Name, sl.kind, err, s.tracer)
			sl.issue() // keep the window full
		}
	}
	for i := range slots {
		slots[i].issue()
	}
	return s.res
}

// burstDelay reports how long until the source's next ON window; 0
// means it is issuing now.
func (s *source) burstDelay() sim.Duration {
	on, off := s.spec.BurstOn, s.spec.BurstOff
	if off == 0 {
		return 0
	}
	period := on + off
	phase := sim.Duration(s.k.Now().Sub(s.res.Start)) % period
	if phase < on {
		return 0
	}
	return period - phase
}

// issueOn issues slot sl's next command, deferring to the next burst ON
// window when the source is in its OFF phase. The kind is drawn before
// the LPN.
func (s *source) issueOn(sl *slot) {
	if s.issued >= s.spec.NumOps {
		return
	}
	if d := s.burstDelay(); d > 0 {
		s.k.After(d, sl.issue)
		return
	}
	s.issued++
	sl.kind = s.nextKind()
	s.res.issue(sl.kind)
	sl.submitted = s.k.Now()
	s.f.Enqueue(s.spec.Queue, Command{
		Kind: sl.kind, LPN: s.nextLPN(), Tenant: s.spec.Name, Done: sl.done,
	})
}

// nextKind is the source's fixed kind, or a draw from its mix.
func (s *source) nextKind() Kind {
	if s.fixed {
		return s.kind
	}
	m := s.spec.Mix
	v := s.rng.Intn(100)
	switch {
	case v < m.ReadPct:
		return KindRead
	case v < m.ReadPct+m.WritePct:
		return KindWrite
	default:
		return KindTrim
	}
}

// nextLPN draws the next address from the source's slice.
func (s *source) nextLPN() int {
	switch s.spec.Pattern {
	case Sequential:
		lpn := s.spec.SliceStart + s.seq%s.spec.SlicePages
		s.seq++
		return lpn
	case Zipfian:
		// The hot set is the first ZipfHot pages of the slice: rank 0 is
		// the hottest page, matching rand.Zipf's rank-ordered output.
		return s.spec.SliceStart + int(s.zipf.Uint64())
	default:
		return s.spec.SliceStart + s.rng.Intn(s.spec.SlicePages)
	}
}
