package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickBudgets is a short ladder for test-scale op counts: disabled,
// starved (4 map pages across 4 shards), and comfortable.
func quickBudgets() []int64 { return []int64{0, 4 * 512, 32 * 512} }

// TestMapCacheDisabledByteIdentity is the gate for the map cache's
// zero-cost-when-off contract, at the experiment level: with
// MapCacheBytes explicitly zero the cache adds no events to the trace,
// and figure CSVs and merged traces are byte-identical at any worker
// count. (That they are also the bytes of a build without the cache is
// TestFigureGoldens' job.)
func TestMapCacheDisabledByteIdentity(t *testing.T) {
	var csv [2]string
	var trace [2][]byte
	for i, par := range []int{1, 8} {
		opt := Options{Ops: 24, Blocks: 16, Parallel: par, MapCacheBytes: 0}
		trace[i] = traceRun(t, opt, func(o Options) error {
			pts, err := Fig12(o)
			if err == nil {
				csv[i] = Fig12CSV(pts)
			}
			return err
		})
	}
	if len(trace[0]) == 0 {
		t.Fatal("fig12 trace is empty; identity check is vacuous")
	}
	if bytes.Contains(trace[0], []byte(`"map-cache"`)) {
		t.Error("disabled map cache emitted map-cache events")
	}
	if csv[0] != csv[1] {
		t.Error("fig12 CSV differs between parallel=1 and parallel=8")
	}
	if !bytes.Equal(trace[0], trace[1]) {
		t.Error("fig12 trace differs between parallel=1 and parallel=8")
	}
}

// TestMapCacheSweepDeterminism pins seed-reproducibility with the
// cache ENABLED: the budget sweep's CSV and merged trace must not
// depend on the worker count, and a repeat run must reproduce them
// byte for byte.
func TestMapCacheSweepDeterminism(t *testing.T) {
	run := func(par int) (string, []byte) {
		opt := Options{Ops: 48, Parallel: par}
		var csv string
		trace := traceRun(t, opt, func(o Options) error {
			pts, err := MapCache(o, quickBudgets())
			if err == nil {
				csv = MapCacheCSV(pts)
			}
			return err
		})
		return csv, trace
	}
	refCSV, refTrace := run(1)
	if len(refTrace) == 0 {
		t.Fatal("mapcache trace is empty; determinism check is vacuous")
	}
	for _, par := range []int{1, 8} {
		csv, trace := run(par)
		if csv != refCSV {
			t.Errorf("mapcache CSV at parallel=%d diverged:\n%s\nvs\n%s", par, csv, refCSV)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("mapcache merged trace at parallel=%d diverged", par)
		}
	}
}

// TestMapCacheSweepShape sanity-checks the ablation's physics at test
// scale: the starved budget must actually miss, and bandwidth must not
// exceed the whole-map-resident baseline (a miss can only add time).
func TestMapCacheSweepShape(t *testing.T) {
	pts, err := MapCache(Options{Ops: 48}, quickBudgets())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	resident := pts[0]
	if resident.BudgetBytes != 0 || resident.Misses != 0 || resident.Hits != 0 {
		t.Fatalf("baseline point moved cache counters: %+v", resident)
	}
	starved := pts[1]
	if starved.Misses == 0 {
		t.Errorf("starved budget never missed: %+v", starved)
	}
	for _, p := range pts[1:] {
		if p.MBps > resident.MBps {
			t.Errorf("budget %dB beat the resident baseline (%.2f > %.2f MB/s): misses must cost time",
				p.BudgetBytes, p.MBps, resident.MBps)
		}
	}
	csv := MapCacheCSV(pts)
	if !strings.HasPrefix(csv, "budget_bytes,mbps,hit_rate,") {
		t.Errorf("CSV header drifted: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if out := RenderMapCache(pts); !strings.Contains(out, "resident") {
		t.Errorf("rendered sweep lacks the resident baseline row:\n%s", out)
	}
}

// TestChaosWithMapCache drives the fault-injection soak with a starved
// translation cache: map-page reads now cross the same RESET/offline
// recovery machinery as data reads, per seed, and the drive must still
// drain and verify.
func TestChaosWithMapCache(t *testing.T) {
	opt := Options{Ops: 24, Blocks: 16, MapCacheBytes: 2048}
	pts, err := Chaos(opt, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d chaos points, want 3", len(pts))
	}
}
