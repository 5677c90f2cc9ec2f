package analyze

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func hostCmd(at sim.Time, tenant string, queue int32, kind int64, dur sim.Duration, failed bool) obs.Event {
	return obs.Event{
		Time: at, Kind: obs.KindHostCmd, Chip: -1,
		Label: tenant, Depth: queue, Cycles: kind, Dur: dur, Err: failed,
	}
}

// tenantReport builds a run's report the way Analyze does: counts from
// the replayed snapshot, latency samples and span from the events.
func tenantReport(events []obs.Event) *TenantReport {
	m := obs.NewMetrics()
	m.Replay(events)
	return TenantReportFromEvents(events, m.Snapshot().Tenants)
}

func TestTenantReportFromEvents(t *testing.T) {
	us := sim.Duration(1_000_000) // 1us in ps
	events := []obs.Event{
		hostCmd(0, "alpha", 0, 0, 10*us, false),
		hostCmd(sim.Time(us), "beta", 1, 1, 20*us, false),
		hostCmd(sim.Time(2*us), "alpha", 0, 0, 30*us, false),
		hostCmd(sim.Time(3*us), "alpha", 0, 2, 5*us, false),
		hostCmd(sim.Time(4*us), "beta", 1, 1, 0, true),
	}
	rep := tenantReport(events)
	if rep == nil {
		t.Fatal("want report, got nil")
	}
	if got, want := len(rep.Rows), 2; got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	if rep.Span != 4*us {
		t.Errorf("span = %v, want %v", rep.Span, 4*us)
	}
	a, b := rep.Rows[0], rep.Rows[1]
	if a.Name != "alpha" || b.Name != "beta" {
		t.Fatalf("rows not sorted by name: %q, %q", a.Name, b.Name)
	}
	if a.Completed != 3 || a.Failed != 0 || a.Reads != 2 || a.Writes != 0 || a.Trims != 1 {
		t.Errorf("alpha = %+v", a)
	}
	if b.Completed != 1 || b.Failed != 1 || b.Writes != 2 {
		t.Errorf("beta = %+v", b)
	}
	// Failed commands are excluded from the latency summary.
	if b.Summary.Count != 1 || b.Summary.Mean != 20*us || b.Latency.Count != 1 {
		t.Errorf("beta latency = %+v", b.Summary)
	}
	if a.Summary.Count != 3 || a.Summary.Max != 30*us || a.Latency.Max != int64(30*us) {
		t.Errorf("alpha latency = %+v", a.Summary)
	}
	// Jain over completions {3, 1}: (4)^2 / (2 * 10) = 0.8.
	if math.Abs(rep.Fairness-0.8) > 1e-9 {
		t.Errorf("fairness = %v, want 0.8", rep.Fairness)
	}
	if a.Queue != 0 || b.Queue != 1 {
		t.Errorf("queues = %d, %d", a.Queue, b.Queue)
	}
}

func TestTenantReportNilWithoutHostCmds(t *testing.T) {
	events := []obs.Event{
		{Time: 0, Kind: obs.KindOpAdmitted, OpID: 1, Chip: 0, Label: "active"},
	}
	if rep := tenantReport(events); rep != nil {
		t.Fatalf("want nil report for host-cmd-free trace, got %+v", rep)
	}
	if rep := tenantReport(nil); rep != nil {
		t.Fatalf("want nil report for empty trace, got %+v", rep)
	}
}

func TestAnalyzeWiresTenantReport(t *testing.T) {
	us := sim.Duration(1_000_000)
	events := []obs.Event{
		hostCmd(0, "solo", 2, 0, 7*us, false),
		hostCmd(sim.Time(us), "solo", 2, 1, 9*us, false),
	}
	res := Analyze(events)
	if len(res.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(res.Runs))
	}
	rep := res.Runs[0].Tenants
	if rep == nil {
		t.Fatal("run 0 has no tenant report")
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Name != "solo" || rep.Rows[0].Completed != 2 {
		t.Fatalf("tenant report = %+v", rep)
	}

	// Both renderings carry the section; a host-cmd-free analysis
	// carries neither (golden stability).
	text := res.Render()
	if !strings.Contains(text, "tenant QoS (run 0)") || !strings.Contains(text, "solo") {
		t.Errorf("Render missing tenant section:\n%s", text)
	}
	csv := res.CSV()
	if !strings.Contains(csv, "run,tenant,queue,completed") {
		t.Errorf("CSV missing tenant section:\n%s", csv)
	}

	quiet := Analyze([]obs.Event{
		{Time: 0, Kind: obs.KindOpAdmitted, OpID: 1, Chip: 0, Label: "active"},
	})
	if strings.Contains(quiet.Render(), "tenant QoS") {
		t.Error("host-cmd-free Render grew a tenant section")
	}
	if strings.Contains(quiet.CSV(), "run,tenant,queue") {
		t.Error("host-cmd-free CSV grew a tenant section")
	}
}
