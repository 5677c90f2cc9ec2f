package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestRunJobsPreservesOrderAndRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 37
		squares := make([]int, n)
		idx, err := runJobs(workers, n, func(i int) error {
			squares[i] = i * i
			return nil
		})
		if err != nil || idx != n {
			t.Fatalf("workers=%d: idx=%d err=%v", workers, idx, err)
		}
		for i, v := range squares {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunJobsZeroJobs(t *testing.T) {
	if idx, err := runJobs(4, 0, func(int) error { t.Fatal("ran"); return nil }); err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

// The reported error must be the lowest-indexed failure regardless of
// which worker hits an error first, so parallel sweeps fail the same
// way serial ones do.
func TestRunJobsReportsLowestError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		idx, err := runJobs(workers, 20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7" || idx != 7 {
			t.Fatalf("workers=%d: idx=%d err=%v, want job 7", workers, idx, err)
		}
	}
}

// After a failure, workers stop pulling new jobs (no point finishing a
// doomed sweep), though jobs in flight complete.
func TestRunJobsStopsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := runJobs(2, 10000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10000 {
		t.Error("all jobs ran despite early failure")
	}
}

// jobs is the configuration list 0..n-1, so a sweep test's run function
// sees its job index as its configuration.
func jobs(n int) []int {
	cfgs := make([]int, n)
	for i := range cfgs {
		cfgs[i] = i
	}
	return cfgs
}

// sweep must hand each job a private tracer and merge the buffers in
// job order, so the merged stream is independent of worker count.
func TestSweepMergesTracesInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var got []uint64
		opt := Options{Parallel: workers, Tracer: obs.Func(func(e obs.Event) {
			got = append(got, e.OpID)
		})}
		res, err := sweep(opt, jobs(16), func(i int, tracer obs.Tracer) (int, error) {
			for j := 0; j < 3; j++ {
				tracer.Event(obs.Event{OpID: uint64(i*3 + j)})
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
		if len(got) != 48 {
			t.Fatalf("workers=%d: %d events merged", workers, len(got))
		}
		for i, id := range got {
			if id != uint64(i) {
				t.Fatalf("workers=%d: merged stream out of order at %d: %v", workers, i, got[:i+1])
			}
		}
	}
}

// sweep replays only the buffers before the failing job — exactly as
// far as a serial run would have traced.
func TestSweepReplaysPrefixOnFailure(t *testing.T) {
	var got []uint64
	opt := Options{Parallel: 1, Tracer: obs.Func(func(e obs.Event) {
		got = append(got, e.OpID)
	})}
	res, err := sweep(opt, jobs(8), func(i int, tracer obs.Tracer) (int, error) {
		tracer.Event(obs.Event{OpID: uint64(i)})
		if i == 3 {
			return i, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || res != nil {
		t.Fatalf("res=%v err=%v, want the error and no results", res, err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d buffers, want 3 (jobs before the failure)", len(got))
	}
}

// A buffer is replayed as soon as every job before it has succeeded, not
// when the sweep settles: serially, job i's events are in the tracer
// before job i+1's body starts, and nothing is replayed twice.
func TestSweepReplaysAsJobsSettle(t *testing.T) {
	var got []uint64
	opt := Options{Parallel: 1, Tracer: obs.Func(func(e obs.Event) {
		got = append(got, e.OpID)
	})}
	_, err := sweep(opt, jobs(4), func(i int, tracer obs.Tracer) (int, error) {
		if len(got) != 2*i {
			t.Errorf("job %d started with %d events replayed, want %d (jobs 0..%d)", i, len(got), 2*i, i-1)
		}
		tracer.Event(obs.Event{OpID: uint64(2 * i)})
		tracer.Event(obs.Event{OpID: uint64(2*i + 1)})
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("merged stream out of order at %d: %v", i, got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("%d events merged, want 8", len(got))
	}
}

// With workers racing to settle, the replay still stops exactly at the
// lowest failing job, whatever finished after it.
func TestSweepParallelFailureReplaysExactPrefix(t *testing.T) {
	for round := 0; round < 20; round++ {
		var got []uint64
		opt := Options{Parallel: 8, Tracer: obs.Func(func(e obs.Event) {
			got = append(got, e.OpID)
		})}
		_, err := sweep(opt, jobs(16), func(i int, tracer obs.Tracer) (int, error) {
			tracer.Event(obs.Event{OpID: uint64(i)})
			if i == 5 || i == 9 {
				return i, errors.New("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if len(got) != 5 {
			t.Fatalf("replayed %v, want jobs 0..4", got)
		}
		for i, id := range got {
			if id != uint64(i) {
				t.Fatalf("replayed %v, want jobs 0..4 in order", got)
			}
		}
	}
}

// traceRun captures the merged JSONL trace of an experiment run.
func traceRun(t *testing.T, opt Options, run func(Options) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLWriter(&buf)
	opt.Tracer = sink
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSweepDeterminism is the harness-level guarantee: the same
// sweep at parallel=1 and parallel=8 produces byte-identical structured
// results AND byte-identical merged JSONL traces. Every figure's result
// rows and the -trace output must not depend on worker count.
func TestParallelSweepDeterminism(t *testing.T) {
	base := quick()

	t.Run("fig10", func(t *testing.T) {
		var csv [2]string
		var trace [2][]byte
		for i, par := range []int{1, 8} {
			opt := base
			opt.Parallel = par
			trace[i] = traceRun(t, opt, func(o Options) error {
				pts, err := Fig10(o)
				if err == nil {
					csv[i] = Fig10CSV(pts)
				}
				return err
			})
		}
		if csv[0] != csv[1] {
			t.Error("fig10 results differ between parallel=1 and parallel=8")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("fig10 merged traces differ between parallel=1 and parallel=8")
		}
		if len(trace[0]) == 0 {
			t.Error("fig10 trace is empty; determinism check is vacuous")
		}
	})

	t.Run("fig12", func(t *testing.T) {
		var csv [2]string
		var trace [2][]byte
		for i, par := range []int{1, 8} {
			opt := base
			opt.Parallel = par
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
			t.Error("fig12 results differ between parallel=1 and parallel=8")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("fig12 merged traces differ between parallel=1 and parallel=8")
		}
		if len(trace[0]) == 0 {
			t.Error("fig12 trace is empty; determinism check is vacuous")
		}
	})

	// Chaos adds fault injection to the guarantee: the same fault-plan
	// seeds must produce byte-identical results and traces — fault
	// hits, RESET recoveries, and offlining decisions included — at any
	// worker count.
	t.Run("chaos", func(t *testing.T) {
		seeds := []int64{1, 2, 3, 4, 5, 6}
		var csv [2]string
		var trace [2][]byte
		for i, par := range []int{1, 8} {
			opt := base
			opt.Parallel = par
			trace[i] = traceRun(t, opt, func(o Options) error {
				pts, err := Chaos(o, seeds)
				if err == nil {
					csv[i] = ChaosCSV(pts)
				}
				return err
			})
		}
		if csv[0] != csv[1] {
			t.Error("chaos results differ between parallel=1 and parallel=8")
		}
		if !bytes.Equal(trace[0], trace[1]) {
			t.Error("chaos merged traces differ between parallel=1 and parallel=8")
		}
		if len(trace[0]) == 0 {
			t.Error("chaos trace is empty; determinism check is vacuous")
		}
	})
}
