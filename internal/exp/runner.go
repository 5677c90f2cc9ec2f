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

// runJobs executes run(0..n-1) on at most workers goroutines. Results
// are whatever run stores at its own index; runJobs only schedules.
// The returned error is the lowest-indexed failure (deterministic no
// matter which worker hit it first), along with its job index; idx is n
// when err is nil. After a failure, workers stop pulling new jobs, but
// jobs already in flight run to completion.
func runJobs(workers, n int, run func(i int) error) (idx int, err error) {
	if n == 0 {
		return n, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
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

// sweep runs n rig jobs under the worker pool and keeps the shared
// Options.Tracer concurrency-safe: each job traces into a private
// obs.Buffer, and buffer i is replayed into the real tracer — and
// released — as soon as jobs 0…i have all succeeded, so a traced sweep
// holds the events of the jobs in flight, not of the whole figure. The
// tracer sees one caller at a time and the buffers in input order: the
// merged stream is byte-identical to a serial run regardless of worker
// count. A failed job stops the replay at its own index (matching how
// far a serial run would have traced) and the lowest-indexed error is
// returned.
//
// Options.Live is the opposite trade: it is fed directly from the
// workers as events happen, concurrently and in nondeterministic
// interleaving, so a monitoring endpoint can watch a long sweep in
// flight. The two compose — Live sees events immediately, Tracer sees
// the same events deterministically ordered once their turn comes.
func sweep(opt Options, n int, body func(i int, tracer obs.Tracer) error) error {
	if opt.Tracer == nil {
		_, err := runJobs(opt.workers(), n, func(i int) error {
			return body(i, opt.Live)
		})
		return err
	}
	bufs := make([]obs.Buffer, n)
	var (
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
	_, err := runJobs(opt.workers(), n, func(i int) error {
		var tr obs.Tracer = &bufs[i]
		if opt.Live != nil {
			tr = obs.Multi{&bufs[i], opt.Live}
		}
		if err := body(i, tr); err != nil {
			return err
		}
		settle(i)
		return nil
	})
	return err
}
