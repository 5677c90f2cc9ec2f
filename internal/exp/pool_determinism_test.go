package exp

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCoroPoolDeterminism holds the pooled and unpooled coroutine paths
// byte-for-byte equal: recycling goroutines through coro.Pool must not
// change a single figure row or trace event, at any worker count. This
// is the simulation-semantics half of the pooling contract (the perf
// half is BenchmarkCoroNew / TestAllocGateCoroPool).
func TestCoroPoolDeterminism(t *testing.T) {
	base := quick()
	base.Parallel = 8

	t.Run("fig10", func(t *testing.T) {
		var csv [2]string
		var trace [2][]byte
		for i, noPool := range []bool{false, true} {
			opt := base
			opt.noCoroPool = noPool
			trace[i] = traceRun(t, opt, func(o Options) error {
				pts, err := Fig10(o)
				if err == nil {
					csv[i] = Fig10CSV(pts)
				}
				return err
			})
		}
		if csv[0] != csv[1] {
			t.Error("fig10 results differ between pooled and unpooled coroutines")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("fig10 merged traces differ between pooled and unpooled coroutines")
		}
		if len(trace[0]) == 0 {
			t.Error("fig10 trace is empty; determinism check is vacuous")
		}
	})

	// Fig11 captures channel waveforms and polling cadence — the most
	// timing-sensitive rendering we have; compare the full result struct
	// including the analyzer trace text.
	t.Run("fig11", func(t *testing.T) {
		var rendered [2]string
		var trace [2][]byte
		for i, noPool := range []bool{false, true} {
			opt := base
			opt.noCoroPool = noPool
			trace[i] = traceRun(t, opt, func(o Options) error {
				res, err := Fig11(o)
				if err == nil {
					rendered[i] = fmt.Sprintf("%+v", res)
				}
				return err
			})
		}
		if rendered[0] != rendered[1] {
			t.Error("fig11 results differ between pooled and unpooled coroutines")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("fig11 merged traces differ between pooled and unpooled coroutines")
		}
	})

	t.Run("fig12", func(t *testing.T) {
		var csv [2]string
		var trace [2][]byte
		for i, noPool := range []bool{false, true} {
			opt := base
			opt.noCoroPool = noPool
			opt.Ops = 120
			trace[i] = traceRun(t, opt, func(o Options) error {
				pts, err := Fig12(o)
				if err == nil {
					csv[i] = Fig12CSV(pts)
				}
				return err
			})
		}
		if csv[0] != csv[1] {
			t.Error("fig12 results differ between pooled and unpooled coroutines")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("fig12 merged traces differ between pooled and unpooled coroutines")
		}
	})

	// Chaos exercises the reuse-heavy paths pooling could plausibly
	// disturb: aborted operations, RESET-driven reissues, and offlining
	// — all recycling coroutines through the same pool.
	t.Run("chaos", func(t *testing.T) {
		seeds := []int64{1, 2, 3, 4, 5, 6}
		var csv [2]string
		var trace [2][]byte
		for i, noPool := range []bool{false, true} {
			opt := base
			opt.noCoroPool = noPool
			trace[i] = traceRun(t, opt, func(o Options) error {
				pts, err := Chaos(o, seeds)
				if err == nil {
					csv[i] = ChaosCSV(pts)
				}
				return err
			})
		}
		if csv[0] != csv[1] {
			t.Error("chaos results differ between pooled and unpooled coroutines")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("chaos merged traces differ between pooled and unpooled coroutines")
		}
		if len(trace[0]) == 0 {
			t.Error("chaos trace is empty; determinism check is vacuous")
		}
	})
}
