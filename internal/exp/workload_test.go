package exp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hic"
)

// workloadQuick shrinks the tenant scenario for tests: a few ops per
// tenant is enough to exercise arbitration, bursts, and the zipfian
// draw.
func workloadQuick() Options {
	return Options{Ops: 12, Parallel: 8}
}

func TestWorkloads(t *testing.T) {
	res, err := Workloads(workloadQuick(), WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness = %v, want (0,1]", res.Fairness)
	}
	if res.Span <= 0 {
		t.Errorf("span = %v, want > 0", res.Span)
	}
	byName := map[string]WorkloadPoint{}
	for _, p := range res.Points {
		if p.Completed != 12 || p.Failed != 0 {
			t.Errorf("%s: completed=%d failed=%d, want 12/0", p.Name, p.Completed, p.Failed)
		}
		if p.SoloMean <= 0 || p.ContMean <= 0 {
			t.Errorf("%s: non-positive latency solo=%v cont=%v", p.Name, p.SoloMean, p.ContMean)
		}
		if p.Slowdown <= 0 {
			t.Errorf("%s: slowdown = %v", p.Name, p.Slowdown)
		}
		byName[p.Name] = p
	}
	if p := byName["seq-reader"]; p.Reads != 12 || p.Writes != 0 || p.Trims != 0 {
		t.Errorf("seq-reader mix = r%d/w%d/t%d, want pure reads", p.Reads, p.Writes, p.Trims)
	}
	if p := byName["bursty-writer"]; p.Writes != 12 || p.Reads != 0 {
		t.Errorf("bursty-writer mix = r%d/w%d/t%d, want pure writes", p.Reads, p.Writes, p.Trims)
	}
	if p := byName["mixed"]; p.Reads+p.Writes+p.Trims != 12 {
		t.Errorf("mixed issued %d+%d+%d ops, want 12", p.Reads, p.Writes, p.Trims)
	}

	// Renderings carry every tenant.
	text := RenderWorkload(res, hic.RoundRobin)
	csv := WorkloadCSV(res)
	for _, name := range []string{"seq-reader", "hot-reader", "bursty-writer", "mixed"} {
		if !bytes.Contains([]byte(text), []byte(name)) {
			t.Errorf("render missing %s", name)
		}
		if !bytes.Contains([]byte(csv), []byte(name)) {
			t.Errorf("CSV missing %s", name)
		}
	}
}

func TestWorkloadsWRR(t *testing.T) {
	res, err := Workloads(workloadQuick(), WorkloadConfig{Arbitration: hic.WeightedRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Completed != 12 || p.Failed != 0 {
			t.Errorf("%s: completed=%d failed=%d, want 12/0", p.Name, p.Completed, p.Failed)
		}
	}
}

// TestWorkloadDeterminism pins the sweep contract for the tenant
// experiment: the workload report and the merged trace are
// byte-identical across worker counts {1,8}, at each frontend queue
// count. Queue count changes arbitration (so results differ across
// queue counts); worker count must not.
func TestWorkloadDeterminism(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			var csv [2]string
			var trace [2][]byte
			for i, par := range []int{1, 8} {
				opt := workloadQuick()
				opt.Parallel = par
				trace[i] = traceRun(t, opt, func(o Options) error {
					res, err := Workloads(o, WorkloadConfig{Queues: queues})
					if err == nil {
						csv[i] = WorkloadCSV(res)
					}
					return err
				})
			}
			if len(trace[0]) == 0 {
				t.Fatal("workload trace is empty; determinism check is vacuous")
			}
			if csv[0] != csv[1] {
				t.Error("workload CSV differs between parallel=1 and parallel=8")
			}
			if !bytes.Equal(trace[0], trace[1]) {
				t.Error("workload merged trace differs between parallel=1 and parallel=8")
			}
		})
	}
}

// TestWorkloadSeedReproducibility pins the tenant engine's RNG streams:
// the recorded command stream (zipfian addresses, mix draws, burst
// phases included) is a pure function of the specs' seeds.
func TestWorkloadSeedReproducibility(t *testing.T) {
	record := func(mutate func([]hic.TenantSpec)) []hic.RecordEntry {
		t.Helper()
		rec := &hic.Recorder{}
		tenants := DefaultTenants(12)
		if mutate != nil {
			mutate(tenants)
		}
		_, err := Workloads(workloadQuick(), WorkloadConfig{Recorder: rec, Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Len() != 4*12 {
			t.Fatalf("recorded %d commands, want %d", rec.Len(), 4*12)
		}
		return rec.Entries()
	}
	a := record(nil)
	b := record(nil)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("same seeds produced different command streams")
	}
	c := record(func(ts []hic.TenantSpec) {
		for i := range ts {
			ts[i].Seed += 1000
		}
	})
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
		t.Error("different seeds produced identical command streams")
	}
}

// TestReplayWorkload pins the Flashmon-style replay contract end to
// end: record the contended run, replay it on a fresh rig, and the
// replay's re-recorded enqueue stream reproduces the original JSONL
// byte for byte.
func TestReplayWorkload(t *testing.T) {
	rec := &hic.Recorder{}
	opt := workloadQuick()
	if _, err := Workloads(opt, WorkloadConfig{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	var original bytes.Buffer
	if err := rec.WriteJSONL(&original); err != nil {
		t.Fatal(err)
	}

	entries, err := hic.ReadJSONL(bytes.NewReader(original.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rerec := &hic.Recorder{}
	res, err := ReplayWorkload(opt, WorkloadConfig{Recorder: rerec}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done() != len(entries) || res.Failed != 0 {
		t.Fatalf("replay terminated %d/%d with %d failures", res.Done(), len(entries), res.Failed)
	}
	var replayed bytes.Buffer
	if err := rerec.WriteJSONL(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original.Bytes(), replayed.Bytes()) {
		t.Error("replay did not reproduce the recorded command stream byte for byte")
	}
}
