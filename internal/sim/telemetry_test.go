package sim

import (
	"runtime"
	"testing"
)

// pingPong builds the 2-shard ping-pong used by the alloc gates: a and
// b exchange one post per half-round for `rounds` rounds.
func pingPong(rounds int) (*Cluster, *int) {
	c := NewCluster(2, Microsecond)
	a, b := c.AddDomain(0), c.AddDomain(1)
	n := new(int)
	var bounceA, bounceB func()
	bounceA = func() {
		*n++
		if *n < rounds {
			a.Post(b, bounceB)
		}
	}
	bounceB = func() { b.Post(a, bounceA) }
	b.Post(a, bounceA)
	return c, n
}

// TestClusterTelemetryCounters pins the armed counters against the
// cluster's own accounting on a deterministic ping-pong: the window
// total and every shard's event count have exact expected values.
func TestClusterTelemetryCounters(t *testing.T) {
	const rounds = 40
	c, _ := pingPong(rounds)
	tel := c.ArmTelemetry()
	c.Run()
	snap := tel.Snapshot()

	if snap.Windows != c.Windows() {
		t.Fatalf("snapshot windows %d != cluster windows %d", snap.Windows, c.Windows())
	}
	var events uint64
	for i, s := range snap.Shards {
		events += s.Events
		if want := c.Kernel(i).Executed(); s.Events != want {
			t.Fatalf("shard %d events %d, want kernel executed %d", i, s.Events, want)
		}
	}
	if events == 0 {
		t.Fatal("no events recorded")
	}
}

// TestClusterTelemetryInvariance pins the Flashmon-style contract: the
// armed instrument must not perturb the simulation it observes. The
// event history with telemetry armed is identical to the unarmed run.
func TestClusterTelemetryInvariance(t *testing.T) {
	const leaves, rounds = 5, 40
	look := 2 * Microsecond
	plain := buildLoggedNet(3, leaves, rounds, look)
	plain.c.Run()
	ref := plain.flatLog()

	armed := buildLoggedNet(3, leaves, rounds, look)
	armed.c.ArmTelemetry()
	armed.c.Run()
	got := armed.flatLog()
	if len(got) != len(ref) {
		t.Fatalf("armed log length %d != %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("armed log[%d] = %q, want %q", i, got[i], ref[i])
		}
	}
}

// TestClusterTelemetryConcurrentReads is the -race pin for the
// satellite fix: Windows, Posts, and Snapshot are documented safe from
// any goroutine while Run is in flight. Under -race this fails loudly
// if any of those reads race the coordinator or a shard worker.
func TestClusterTelemetryConcurrentReads(t *testing.T) {
	net := buildLoggedNet(3, 6, 300, 2*Microsecond)
	tel := net.c.ArmTelemetry()
	done := make(chan struct{})
	go func() {
		net.c.Run()
		close(done)
	}()
	reads := 0
	for {
		_ = net.c.Windows()
		_ = net.c.Posts()
		_ = tel.Snapshot()
		reads++
		select {
		case <-done:
			if net.c.Windows() == 0 || reads == 0 {
				t.Fatalf("vacuous run: windows=%d reads=%d", net.c.Windows(), reads)
			}
			snap := tel.Snapshot()
			if snap.Windows != net.c.Windows() {
				t.Fatalf("final snapshot windows %d != %d", snap.Windows, net.c.Windows())
			}
			return
		default:
			runtime.Gosched()
		}
	}
}

// TestClusterTelemetryArmAfterDomains pins the arming contract.
func TestClusterTelemetryArmAfterDomains(t *testing.T) {
	c := NewCluster(2, Microsecond)
	c.AddDomain(0)
	c.ArmTelemetry()
	defer func() {
		if recover() == nil {
			t.Fatal("AddDomain after ArmTelemetry did not panic")
		}
	}()
	c.AddDomain(1)
}

// TestAllocGateShardTelemetry is the armed twin of
// TestAllocGateClusterSteadyState: with the per-shard counters and
// wall-clock attribution live, a steady-state window cycle still
// allocates nothing — same ceiling as unarmed.
func TestAllocGateShardTelemetry(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := NewCluster(2, Microsecond)
	a, b := c.AddDomain(0), c.AddDomain(1)
	const warmup, measured = 200, 1000
	n := 0
	var m1, m2 runtime.MemStats
	var bounceA, bounceB func()
	bounceA = func() {
		n++
		if n == warmup {
			runtime.ReadMemStats(&m1)
		}
		if n == warmup+measured {
			runtime.ReadMemStats(&m2)
			return
		}
		a.Post(b, bounceB)
	}
	bounceB = func() { b.Post(a, bounceA) }
	b.Post(a, bounceA)
	c.ArmTelemetry()
	c.Run()
	allocs := m2.Mallocs - m1.Mallocs
	if allocs > 16 {
		t.Fatalf("armed steady state allocated %d objects over %d rounds, want ~0",
			allocs, measured)
	}
}
