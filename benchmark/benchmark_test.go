package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/obs"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{19, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99},
		{10000, 99.9}, {20000, 99.9}, {99999, 99.9}, {100000, 99.99}, {600000, 99.99},
	} {
		if got := highestPercentile(c.samples); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
	// The ledger's tail is the rule's answer at the smallest workload.
	if got := highestPercentile(smallestOps); got != tailPercentile {
		t.Errorf("tail percentile is %v but the rule allows %v at %d samples", tailPercentile, got, smallestOps)
	}
}

// Expected values are statistics.median and statistics.quantiles(v, n=4)
// of Python 3.11, which the benchmark contract states its spreads in.
func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 8, 2, 32},
	} {
		s := summarize(c.v)
		if s.median != c.med || s.q1 != c.q1 || s.q3 != c.q3 || s.n != len(c.v) {
			t.Errorf("summarize(%v) = %+v, want median %v quartiles %v, %v", c.v, s, c.med, c.q1, c.q3)
		}
	}
}

func TestModelBandwidthAccounting(t *testing.T) {
	// 7700 commands in one virtual second on 512-byte pages is 3.9 MB/s,
	// not the 126 MB/s a hard-coded 16 KiB page would claim.
	if got := modelMBps(7700, 512, 1e12); got != 3.9424 {
		t.Errorf("modelMBps(7700 pages of 512 B in 1 s) = %v, want 3.9424", got)
	}
	// A run with no virtual time has no bandwidth: an error, never a 0.
	w, err := workloadByName("tenants_mixed_2x4")
	if err != nil {
		t.Fatal(err)
	}
	good := runOut{Ops: 10, PagesMoved: 10, PageBytes: 512, VirtualPs: 1e9, SimNs: 1e6, SetupNs: []int64{1}, Mallocs: 1, PeakRSSKB: 1, Events: 1, LatP50Ps: 1, LatP999Ps: 1}
	if _, err := endToEndMetrics(w, []*runOut{&good}, &good); err != nil {
		t.Errorf("a complete run was refused: %v", err)
	}
	for what, bad := range map[string]runOut{
		"virtual time": {Ops: 10, PagesMoved: 10, PageBytes: 512, SimNs: 1e6},
		"host time":    {Ops: 10, PagesMoved: 10, PageBytes: 512, VirtualPs: 1e9},
	} {
		if _, err := endToEndMetrics(w, []*runOut{&bad}, &good); err == nil {
			t.Errorf("a repetition without %s produced end-to-end metrics", what)
		}
		if _, err := endToEndMetrics(w, []*runOut{&good}, &bad); err == nil {
			t.Errorf("an HW twin without %s produced end-to-end metrics", what)
		}
	}
	// Trims move no data and failures move none and carry no latency.
	var h hostCmds
	for _, e := range []obs.Event{
		{Kind: obs.KindHostCmd, Cycles: int64(hic.KindRead), Dur: 5},
		{Kind: obs.KindHostCmd, Cycles: int64(hic.KindWrite), Dur: 7},
		{Kind: obs.KindHostCmd, Cycles: int64(hic.KindTrim), Dur: 1},
		{Kind: obs.KindHostCmd, Cycles: int64(hic.KindRead), Dur: 9, Err: true},
		{Kind: obs.KindOpFinished, Dur: 3},
	} {
		h.Event(e)
	}
	if h.moved != 2 || h.failed != 1 || len(h.lat) != 3 {
		t.Errorf("hostCmds: moved %d failed %d latencies %d, want 2, 1, 3", h.moved, h.failed, len(h.lat))
	}
	// The page size comes from the rig the workload builds.
	out, err := w.run(runSpec{Workload: w.name, Seed: 1, Ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	if out.PageBytes != 512 {
		t.Errorf("tenant rig reports %d-byte pages, want 512", out.PageBytes)
	}
	if trims := int(out.SSDTrims); trims == 0 || out.PagesMoved != out.Ops-trims {
		t.Errorf("pages moved %d of %d commands with %d trims", out.PagesMoved, out.Ops, trims)
	}
}

func TestLedgerRefusesUnmeasured(t *testing.T) {
	decls := []metricDecl{{name: "a"}, {name: "b"}}
	l := newLedger(decls)
	for what, err := range map[string]error{
		"an undeclared name":  l.put("c", 1),
		"an empty sample":     l.put("a"),
		"a non-finite sample": l.put("a", 1, nan()),
	} {
		if err == nil {
			t.Errorf("ledger accepted %s", what)
		}
	}
	if err := l.put("a", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.put("a", 4); err == nil {
		t.Error("ledger accepted a second value for one name")
	}
	if err := l.close(); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("closing with b unmeasured: %v", err)
	}
	if err := l.put("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Errorf("complete ledger refused: %v", err)
	}
}

func nan() float64 { var z float64; return z / z }

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the program's declarations; regenerate it with `go run ./benchmark -describe > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// A ratio over a layer that did not run is absent, not 0; one whose
// denominator is 0 where it should not be is refused.
func TestLayerRatiosAreNeverFiller(t *testing.T) {
	for _, w := range workloads {
		for _, d := range perLayer {
			want := d.only == "" ||
				(d.only == "cluster" && w.name == "drive_read_8x8_cluster") ||
				(d.only != "cluster" && w.name == "tenants_mixed_2x4")
			on := false
			for _, have := range declsOn(perLayer, &w) {
				on = on || have.name == d.name
			}
			if on != want {
				t.Errorf("%s on %s: declared %v, want %v", d.name, w.name, on, want)
			}
		}
	}
	// A read run has no host or virtual time in this fabricated pass, so
	// every rate over them is 0/0 or x/0.
	w := &workloads[0]
	empty := &runOut{}
	_, err := layerMetrics(layerRuns{w: w, base: empty, timed: empty, span: &runOut{SimNs: 2}, spanRef: &runOut{SimNs: 1}, twin: empty, alt: empty, ladder: &ladderOut{}})
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("layer metrics over an empty run: %v, want a non-finite refusal", err)
	}

	// A tracer-off twin slower than the traced sample, and unit costs
	// that overrun the host time, are printed as measured and flagged.
	base, err := w.run(runSpec{Workload: w.name, Seed: 1, Ops: 64})
	if err != nil {
		t.Fatal(err)
	}
	span, err := w.run(runSpec{Workload: w.name, Seed: 1, Ops: 64, Buffer: true})
	if err != nil {
		t.Fatal(err)
	}
	slowRef := *base
	slowRef.SimNs = 2 * span.SimNs
	l, err := layerMetrics(layerRuns{w: w, base: base, timed: base, span: span, spanRef: &slowRef, twin: base, alt: base,
		ladder: &ladderOut{EventNs: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	(&harness{out: &out}).printLedger("flagged", l)
	for name, flag := range map[string]string{"obs.emit_ns_per_event": "UNRESOLVED", "obs.trace_overhead_x": "UNRESOLVED", "unattributed_share": "OVERRUN"} {
		if v := l.vals[name].median; (name == "obs.trace_overhead_x") != (v > 0) {
			t.Errorf("%s = %v: not the measured value", name, v)
		}
		flagged := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				flagged = strings.Contains(line, flag)
			}
		}
		if !flagged {
			t.Errorf("%s printed without its %s flag", name, flag)
		}
	}
}

// TestSmokeAllWorkloads runs the whole ledger at 1/100 of the command
// counts, in-process: every workload end to end and through its layer
// pass, every output check armed, and every declared metric printed
// exactly once per workload.
func TestSmokeAllWorkloads(t *testing.T) {
	var out bytes.Buffer
	h := &harness{
		seed: 2, scale: 0.01, out: &out,
		run: func(s runSpec) (*runOut, error) {
			w, err := workloadByName(s.Workload)
			if err != nil {
				return nil, err
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.Procs))
			return w.run(s)
		},
		ladder: func(w *workload) (*ladderOut, error) { return w.ladder() },
	}
	if err := h.ledgerAll(2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	for _, w := range workloads {
		for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
			want := 1
			if d.only != "" && !w.has(d.only) {
				want = 0
			}
			n := 0
			section := ""
			for _, line := range lines {
				if !strings.HasPrefix(line, " ") {
					section, _, _ = strings.Cut(line, " ")
				}
				if f := strings.Fields(line); section == w.name && len(f) > 0 && f[0] == d.name {
					n++
				}
			}
			if n != want {
				t.Errorf("%s: metric %s printed %d times, want %d", w.name, d.name, n, want)
			}
		}
	}

	// The contract form ends in one JSON line with exactly the declared
	// metrics of the requested kind.
	for _, layers := range []bool{false, true} {
		out.Reset()
		if err := h.contractRun(&workloads[3], 0, layers); err != nil {
			t.Fatal(err)
		}
		all := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(all[len(all)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line is not the contract's JSON: %v", err)
		}
		decls := endToEnd
		if layers {
			// What every workload reports, as BENCHMARK.json lists it.
			decls = nil
			for _, d := range perLayer {
				if d.only == "" {
					decls = append(decls, d)
				}
			}
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(decls) {
			t.Errorf("layers=%v: correct %v attempted %d failed %d with %d metrics, want %d", layers, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(decls))
		}
		for _, d := range decls {
			if m, ok := res.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("layers=%v: metric %s missing or mis-united: %+v", layers, d.name, m)
			}
		}
	}
}
