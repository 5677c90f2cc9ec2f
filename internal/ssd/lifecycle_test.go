package ssd

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hic"
)

// waitGoroutines polls, up to a deadline, until the process goroutine
// count drops to at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// A full rig lifecycle — build, preload, mixed read/write workload with
// GC pressure, Close — must return the process goroutine count to
// baseline: no operation coroutines left suspended, no parked pool
// workers surviving teardown. This is the end-to-end teardown contract
// the per-package tests (coro, core) check in isolation.
func TestRigLifecycleLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 2
	rig, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rig.CoroPool == nil {
		t.Fatal("BABOL rig built without a coroutine pool")
	}
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindWrite, ReadPercent: 50,
		NumOps: 400, QueueDepth: 8, LogicalPages: logical, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 400 || res.Failed != 0 {
		t.Fatalf("workload: %+v", res)
	}
	// Pooling is the reason the goroutine count stays flat mid-run too:
	// 400 host ops (plus GC traffic) must not have spawned anywhere near
	// one worker each — only as many as were ever concurrently live.
	if n := rig.CoroPool.Spawned(); n >= 100 {
		t.Errorf("pool spawned %d workers for a 400-op workload; reuse is broken", n)
	}
	rig.Close()
	waitGoroutines(t, base)
}

// Closing a rig mid-workload — operations still suspended on the kernel
// — must abort the in-flight coroutines and stop the pool, returning to
// the goroutine baseline without requiring the workload to drain.
func TestRigCloseMidWorkloadLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	rig, err := Build(smallBuild(CtrlBabolRTOS))
	if err != nil {
		t.Fatal(err)
	}
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	if _, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 100, QueueDepth: 8, LogicalPages: logical,
	}); err != nil {
		t.Fatal(err)
	}
	// Advance partway: some operations complete, others are suspended
	// mid-transaction when we tear down.
	for i := 0; i < 200 && rig.Kernel.Step(); i++ {
	}
	rig.Close()
	waitGoroutines(t, base)
}
