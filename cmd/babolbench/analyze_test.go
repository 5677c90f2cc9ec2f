package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/exp"
	"repro/internal/obs"
)

// The checked-in mini trace is 4 rigs of `babolbench -ops 16 split`
// merged in configuration order (regenerate with
// `go run ./cmd/babolbench -ops 16 -parallel 1 -trace cmd/babolbench/testdata/mini.jsonl split`,
// then refresh the goldens from `babolbench analyze` / `-csv analyze`).
// CI runs the same comparison against the built binary; this test keeps
// `go test` self-sufficient.
func readMini(t *testing.T) []obs.Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The tenant mini trace is the workload sweep — four solo runs plus the
// contended run — with host-command events merged in (regenerate with
// `go run ./cmd/babolbench -ops 8 -parallel 1 -trace cmd/babolbench/testdata/mini_tenants.jsonl workload`,
// then refresh the goldens from `babolbench analyze` / `-csv analyze`).
// CI golden-diffs the analyze output of the built binary against the
// same files.
func TestAnalyzeMiniTenantTraceGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "mini_tenants.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	res := analyze.Analyze(events)
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d, want 5 (4 solo + contended)", len(res.Runs))
	}
	for i, run := range res.Runs {
		if run.Tenants == nil {
			t.Fatalf("run %d has no tenant report", i)
		}
	}
	if got := len(res.Runs[4].Tenants.Rows); got != 4 {
		t.Fatalf("contended run has %d tenant rows, want 4", got)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("protocol violations in the golden trace: %v", res.Violations)
	}
	if got, want := res.Render(), golden(t, "mini_tenants.report.golden"); got != want {
		t.Errorf("report drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.CSV(), golden(t, "mini_tenants.csv.golden"); got != want {
		t.Errorf("CSV drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAnalyzeMiniTraceGolden(t *testing.T) {
	res := analyze.Analyze(readMini(t))
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4 (2 controllers x 2 clocks)", len(res.Runs))
	}
	if len(res.Violations) != 0 {
		t.Fatalf("protocol violations in the golden trace: %v", res.Violations)
	}
	if got, want := res.Render(), golden(t, "mini.report.golden"); got != want {
		t.Errorf("report drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.CSV(), golden(t, "mini.csv.golden"); got != want {
		t.Errorf("CSV drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMiniTracesRegenerate closes the loop on the checked-in traces:
// the goldens above prove analyze is stable on mini.jsonl and
// mini_tenants.jsonl, this proves those files are still what the
// simulator emits — the live event streams of `-ops 16 split` and
// `-ops 8 workload`, JSONL-encoded, byte for byte, at any -parallel.
// A change to any simulated path shows up here as a diff against
// bytes recorded before it.
func TestMiniTracesRegenerate(t *testing.T) {
	traces := []struct {
		file string
		args []string
		run  func(exp.Options) error
	}{
		{"mini.jsonl", []string{"-ops", "16", "split"}, func(o exp.Options) error {
			_, err := exp.TimeSplit(o)
			return err
		}},
		{"mini_tenants.jsonl", []string{"-ops", "8", "workload"}, func(o exp.Options) error {
			_, err := exp.Workloads(o, exp.WorkloadConfig{})
			return err
		}},
	}
	for _, tr := range traces {
		want, err := os.ReadFile(filepath.Join("testdata", tr.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []string{"1", "8"} {
			c := newCLI(io.Discard)
			if err := c.fs.Parse(append([]string{"-parallel", parallel}, tr.args...)); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			sink := obs.NewJSONLWriter(&got)
			opt := c.options()
			opt.Tracer = sink
			if err := tr.run(opt); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%v at -parallel %s no longer regenerates testdata/%s (%d bytes, want %d)",
					tr.args, parallel, tr.file, got.Len(), len(want))
			}
		}
	}
}

// An empty trace is an error for both report forms, not an all-zero
// report: `: > t.jsonl; babolbench analyze t.jsonl` must exit 1.
func TestAnalyzeTraceRejectsEmptyTrace(t *testing.T) {
	for name, content := range map[string]string{"empty.jsonl": "", "blank.jsonl": "\n  \n\r\n"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, csv := range []bool{false, true} {
			if err := analyzeTrace(path, csv); err == nil || err.Error() != path+": no events" {
				t.Errorf("analyzeTrace(%s, csv=%v) = %v, want %q", name, csv, err, path+": no events")
			}
		}
	}
}
