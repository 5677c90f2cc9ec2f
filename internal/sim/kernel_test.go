package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{53 * Microsecond, "53us"},
		{1500 * Microsecond, "1.5ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationStd(t *testing.T) {
	if got := (53 * Microsecond).Std(); got != 53*time.Microsecond {
		t.Errorf("Std() = %v, want 53µs", got)
	}
	if got := (999 * Picosecond).Std(); got != 0 {
		t.Errorf("sub-ns Std() = %v, want 0", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d", d)
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(30, func() { order = append(order, 3) })
	k.After(10, func() { order = append(order, 1) })
	k.After(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.After(10, func() {
		hits = append(hits, k.Now())
		k.After(5, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling: %v", hits)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.After(10, func() { fired = append(fired, k.Now()) })
	k.After(20, func() { fired = append(fired, k.Now()) })
	k.After(30, func() { fired = append(fired, k.Now()) })
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", len(fired))
	}
	if k.Now() != 20 {
		t.Fatalf("clock = %v, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// Clock advances to deadline even with no events.
	k.RunUntil(25)
	if k.Now() != 25 {
		t.Fatalf("clock = %v, want 25", k.Now())
	}
}

func TestKernelRunFor(t *testing.T) {
	k := NewKernel()
	n := 0
	k.After(10, func() { n++ })
	k.After(100, func() { n++ })
	k.RunFor(50)
	if n != 1 {
		t.Fatalf("RunFor(50) fired %d events, want 1", n)
	}
	if k.Now() != 50 {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewKernel().After(-1, func() {})
}

// Property: for any batch of random (non-negative) delays, events fire in
// non-decreasing time order and the count matches.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var times []Time
		for _, d := range delays {
			k.After(Duration(d), func() { times = append(times, k.Now()) })
		}
		k.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: two kernels fed the same seeded workload produce identical
// firing sequences (determinism).
func TestKernelDeterminismProperty(t *testing.T) {
	run := func(seed int64) []int64 {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				d := Duration(rng.Intn(1000))
				k.After(d, func() {
					trace = append(trace, int64(k.Now()))
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		k.Run()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d", seed, i)
			}
		}
	}
}

// TestKernelSteadyStateDoesNotAllocate: once the slot and heap arrays
// reach the simulation's high-water mark, the schedule/fire cycle must
// be allocation-free (the closure below captures nothing, so it is
// statically allocated).
func TestKernelSteadyStateDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	var churn func()
	n := 0
	churn = func() {
		if n++; n < 1000 {
			k.After(7, churn)
		}
	}
	k.After(7, churn)
	k.Run() // grow to high-water mark
	n = 0
	avg := testing.AllocsPerRun(10, func() {
		n = 0
		k.After(7, churn)
		k.Run()
	})
	if avg > 0 {
		t.Errorf("steady-state schedule/fire allocated %.1f objects per 1000 events", avg)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 100; j++ {
			k.After(Duration(j), func() {})
		}
		k.Run()
	}
}

// BenchmarkKernelSchedule measures the steady-state schedule/fire hot
// path on a warmed kernel — the per-event cost the whole simulator sits
// on. Run with -benchmem: the target is zero allocs/op.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	// Warm the heap array to its high-water mark.
	for j := 0; j < 64; j++ {
		k.After(Duration(j), fn)
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, fn)
		k.Step()
	}
}
