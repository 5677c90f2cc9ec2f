package exp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The experiment harness's parallel sweep runner. Every figure of the
// paper's evaluation is an embarrassingly-parallel sweep of independent
// single-channel rigs — package × rate × controller × CPU frequency ×
// LUN count — and each rig owns its whole world (kernel, channel, LUNs,
// FTL), so rigs can run concurrently without sharing anything. The
// runner fans rig jobs out across a bounded worker pool while keeping
// every simulation kernel single-threaded, and reassembles results in
// input order so sweeps stay deterministic: same configurations in,
// byte-identical tables, CSVs, and traces out, at any worker count.

// workers resolves the sweep's worker-pool size: Options.Parallel if
// set, else one worker per available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes run(0..n-1) on at most workers goroutines, pulling
// jobs in index order. Results are whatever run stores at its own index;
// runJobs only schedules. The returned error is the lowest-indexed
// failure (deterministic no matter which worker hit it first), along
// with its job index; idx is n when err is nil. After a failure, workers
// stop pulling new jobs, but jobs already in flight run to completion —
// so one worker runs jobs in order and stops at the first failure.
func runJobs(workers, n int, run func(i int) error) (idx int, err error) {
	workers = min(workers, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = run(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return i, e
		}
	}
	return n, nil
}

// sweep runs run once per configuration under the worker pool and
// returns the results in configuration order, or the lowest-indexed
// error. It keeps the shared Options.Tracer concurrency-safe: each job
// traces into a private obs.Buffer, and buffer i is replayed into the
// real tracer — and released — as soon as jobs 0…i have all succeeded,
// so a traced sweep holds the events of the jobs in flight, not of the
// whole figure. The tracer sees one caller at a time and the buffers in
// input order: the merged stream is byte-identical to a serial run
// regardless of worker count. A failed job stops the replay at its own
// index (matching how far a serial run would have traced).
//
// Options.Live is the opposite trade: it is fed directly from the
// workers as events happen, concurrently and in nondeterministic
// interleaving, so a monitoring endpoint can watch a long sweep in
// flight. The two compose — Live sees events immediately, Tracer sees
// the same events deterministically ordered once their turn comes.
func sweep[C, R any](opt Options, cfgs []C, run func(C, obs.Tracer) (R, error)) ([]R, error) {
	n := len(cfgs)
	res := make([]R, n)
	var (
		bufs      = make([]obs.Buffer, n)
		mu        sync.Mutex
		succeeded = make([]bool, n)
		cursor    int  // bufs[:cursor] are replayed and released
		replaying bool // one worker is feeding the tracer, outside the lock
	)
	// settle marks job i succeeded and, unless another worker is already
	// at it, replays every buffer whose turn has come. The lock is not
	// held across the tracer calls; replaying keeps them to one caller.
	settle := func(i int) {
		mu.Lock()
		succeeded[i] = true
		if replaying {
			mu.Unlock()
			return
		}
		replaying = true
		for cursor < n && succeeded[cursor] {
			mu.Unlock()
			bufs[cursor].ReplayInto(opt.Tracer)
			bufs[cursor] = obs.Buffer{}
			mu.Lock()
			cursor++
		}
		replaying = false
		mu.Unlock()
	}
	_, err := runJobs(opt.workers(), n, func(i int) (err error) {
		tr := opt.Live
		if opt.Tracer != nil {
			tr = &bufs[i]
			if opt.Live != nil {
				tr = obs.Multi{&bufs[i], opt.Live}
			}
		}
		if res[i], err = run(cfgs[i], tr); err == nil && opt.Tracer != nil {
			settle(i)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
