package obs

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// endpointStream is a hand-built stream that touches every field the
// live endpoints serve: two channels with two chips each, every charge
// site, fault and recovery labels, all four map-cache outcomes, and two
// tenants, one of which has a failed read.
func endpointStream() []Event {
	var out []Event
	for ch := 0; ch < 2; ch++ {
		for chip := 0; chip < 2; chip++ {
			op := uint64(10*ch + chip + 1)
			base := sim.Time(1000*ch + 100*chip)
			ev := func(d sim.Time, k Kind) Event {
				return Event{Time: base + d, Kind: k, Channel: int16(ch), OpID: op, Chip: int16(chip)}
			}
			charge := func(d sim.Time, label string, cycles int64, dur sim.Duration) Event {
				e := ev(d, KindCPUCharge)
				e.Label, e.Cycles, e.Dur = label, cycles, dur
				return e
			}
			admitted := ev(1, KindOpAdmitted)
			admitted.Label = "active"
			enq := ev(6, KindTxnEnqueued)
			enq.TxnID, enq.Depth = op, int32(1+chip)
			pop := ev(7, KindTxnPopped)
			pop.TxnID, pop.Depth = op, int32(chip)
			instr := ev(40, KindHWInstr)
			instr.TxnID, instr.Label, instr.Bytes, instr.Dur = op, "data-read", 4096, 33
			exec := ev(41, KindTxnExecuted)
			exec.TxnID, exec.Start, exec.End, exec.Dur = op, base+7, base+41, sim.Duration(34+chip)
			gate := ev(42, KindGateOpened)
			gate.OpID = 0
			done := ev(90, KindOpFinished)
			done.Dur, done.Err = sim.Duration(90+7*chip), ch == 1 && chip == 1
			out = append(out, charge(0, "admit", 120, 800), admitted)
			if chip == 1 {
				out = append(out, ev(2, KindAdmissionWait))
			}
			out = append(out,
				charge(3, "switch", 300, 2000), ev(4, KindOpResumed),
				charge(5, "submit", 40, 267), enq, pop, instr, exec, gate,
				ev(43, KindPollResubmit), charge(44, "poll-resubmit", 90, 600), done)
		}
		out = append(out, Event{Time: sim.Time(1000*ch + 95), Kind: KindCPUCharge, Channel: int16(ch), Label: "schedule", Cycles: 60, Dur: 400})
	}
	for i, l := range []string{"stuck-busy", "fail-storm", "ecc-burst", "tr-jitter", "stuck-busy"} {
		out = append(out, Event{Time: sim.Time(3000 + i), Kind: KindFault, Channel: int16(i % 2), Chip: int16(i % 2), Label: l})
	}
	for i, l := range []string{"reset", "reset-recovered", "chip-dead", "chip-offline", "read-only"} {
		chip := int16(i % 2)
		if l == "read-only" {
			chip = -1
		}
		out = append(out, Event{Time: sim.Time(3100 + i), Kind: KindRecovery, Channel: 1, Chip: chip, Label: l})
	}
	for i, l := range []string{"hit", "hit", "hit", "miss", "evict", "flush", "miss"} {
		out = append(out, Event{Time: sim.Time(3200 + i), Kind: KindMapCache, Chip: int16(i % 2), Label: l})
	}
	host := func(at sim.Time, tenant string, queue int32, kind int64, dur sim.Duration, failed bool) Event {
		return Event{Time: at, Kind: KindHostCmd, Chip: -1, Label: tenant, Depth: queue, Cycles: kind, Dur: dur, Err: failed}
	}
	return append(out,
		host(4000, "alpha", 0, 0, 1500, false),
		host(4001, "beta", 1, 1, 70000, false),
		host(4002, "alpha", 0, 2, 3, false),
		host(4003, "beta", 1, 0, 0, true),
		host(4004, "alpha", 0, 1, 1<<20, false),
		host(4005, "beta", 1, 0, 12345, false),
	)
}

// TestEndpointGoldens pins the bytes of the three live endpoints —
// /metrics, /ftl and /tenants — fed one hand-built stream through
// SyncMetrics, the registry `babolbench -http` serves them from.
func TestEndpointGoldens(t *testing.T) {
	sm := NewSyncMetrics()
	for _, e := range endpointStream() {
		sm.Event(e)
	}
	for name, h := range map[string]http.Handler{
		"metrics": MetricsHandler(sm.Snapshot),
		"ftl":     FTLHandler(sm.Snapshot),
		"tenants": TenantsHandler(sm.Snapshot),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/"+name, nil))
		if rec.Code != 200 {
			t.Fatalf("/%s: status %d", name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("/%s: content type %q", name, ct)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".json.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("/%s drifted from testdata/%s.json.golden:\n%s", name, name, got)
		}
	}
}
