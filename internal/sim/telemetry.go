package sim

import (
	"sync/atomic"
	"time"
)

// Telemetry is the cluster's shard-profiling instrument: per-shard
// event counts and the wall-clock split of every window into execution
// and barrier wait. It follows the nand.FaultInjector idiom — a
// nil-check-disarmed hook — so an unarmed cluster pays one nil check
// per window and nothing else, and an armed cluster stays
// allocation-free in steady state: every counter is a preallocated
// atomic.
//
// Concurrency: the coordinator goroutine owns all writes except
// lastExecNs, which each worker stores for its own shard inside a
// window (the run/done channel pair orders those stores before the
// coordinator's read). Everything exported — Snapshot, and the
// cluster's Windows/Posts — is safe to call from any goroutine while
// Run is in flight.
type Telemetry struct {
	slots   []telemetrySlot
	windows atomic.Uint64 // windows recorded since arming

	// winStart is coordinator-local scratch: wall clock at window
	// dispatch, read back by record() after the barrier.
	winStart time.Time
}

// telemetrySlot is one shard's counters. All fields except prevExec are
// atomics readable mid-run; prevExec is coordinator-owned scratch (the
// kernel's Executed high-water mark at the last window boundary).
type telemetrySlot struct {
	events     atomic.Uint64 // events executed while armed
	execNs     atomic.Int64  // wall nanoseconds inside RunUntil, busy windows only
	barrierNs  atomic.Int64  // wall nanoseconds waiting on the window barrier
	lastExecNs atomic.Int64  // this window's RunUntil wall time (worker-written)
	prevExec   uint64
}

// ShardStats is one shard's aggregate in a TelemetrySnapshot. Windows
// where the shard had no due events are skipped by the dispatcher
// entirely and add to neither clock.
type ShardStats struct {
	Events  uint64
	Exec    time.Duration // wall time executing events
	Barrier time.Duration // wall time the window outlived this shard's execution
}

// TelemetrySnapshot is a self-contained copy of the telemetry state,
// safe to read while the cluster keeps running.
type TelemetrySnapshot struct {
	Windows uint64
	Shards  []ShardStats
}

// ArmTelemetry attaches a telemetry instrument to the cluster and
// returns it. Arming ends the build phase: call it after every
// AddDomain (which panics afterwards) and before Run. Arming twice
// replaces the instrument.
func (c *Cluster) ArmTelemetry() *Telemetry {
	t := &Telemetry{slots: make([]telemetrySlot, len(c.kernels))}
	for i, k := range c.kernels {
		t.slots[i].prevExec = k.Executed()
	}
	c.telem = t
	return t
}

// record closes out one window: per-shard event deltas and exec vs.
// barrier wall attribution. Called by the coordinator after the window
// barrier, so every kernel and every lastExecNs store is ordered before
// it.
func (t *Telemetry) record(c *Cluster) {
	windowWall := int64(time.Since(t.winStart))
	for i, k := range c.kernels {
		executed := k.Executed()
		s := &t.slots[i]
		delta := executed - s.prevExec
		s.prevExec = executed
		if delta == 0 {
			continue
		}
		s.events.Add(delta)
		exec := s.lastExecNs.Load()
		s.execNs.Add(exec)
		if wait := windowWall - exec; wait > 0 {
			s.barrierNs.Add(wait)
		}
	}
	t.windows.Add(1)
}

// Snapshot copies the telemetry state. Safe concurrently with Run.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	snap := TelemetrySnapshot{
		Windows: t.windows.Load(),
		Shards:  make([]ShardStats, len(t.slots)),
	}
	for i := range t.slots {
		s := &t.slots[i]
		snap.Shards[i] = ShardStats{
			Events:  s.events.Load(),
			Exec:    time.Duration(s.execNs.Load()),
			Barrier: time.Duration(s.barrierNs.Load()),
		}
	}
	return snap
}
