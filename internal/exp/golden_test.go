package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hic"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestFigureGoldens holds every CSV a babolbench user can get at the
// default flags, and every text report, to checked-in bytes. The
// determinism tests compare the code with itself (parallel 1 vs 8), so
// they cannot see a change that moves both sides; these goldens can,
// and they are what a deletion or refactor of a simulation path diffs
// against. Each experiment runs once and yields
// its .csv and its .txt, where it has one; the test-only design ablations
// (ablations_test.go) have a .csv only. table2.txt moves whenever the
// Table II bodies in ops.go or the FSM states in fsm.go change length:
// Table II is a claim about them. Regenerate only for an intended change, and say why:
// `go test ./internal/exp -run TestFigureGoldens -update`.
func TestFigureGoldens(t *testing.T) {
	opt := Options{Ops: 24, Blocks: 16}
	figures := []struct {
		name string
		out  func() (csv, txt string, err error) // "" pins no golden of that kind
	}{
		{"table1", func() (string, string, error) { return "", RenderTable1(), nil }},
		{"table2", func() (string, string, error) {
			txt, err := RenderTable2()
			return "", txt, err
		}},
		{"table3", func() (string, string, error) { return "", RenderTable3(), nil }},
		{"fig9", func() (string, string, error) {
			txt, err := Fig9()
			return "", txt, err
		}},
		{"fig10", func() (string, string, error) {
			pts, err := Fig10(opt)
			return Fig10CSV(pts), RenderFig10(pts), err
		}},
		{"fig11", func() (string, string, error) {
			res, err := Fig11(opt)
			return "", RenderFig11(res), err
		}},
		{"fig12", func() (string, string, error) {
			pts, err := Fig12(opt)
			return Fig12CSV(pts), RenderFig12(pts), err
		}},
		{"split", func() (string, string, error) {
			rows, err := TimeSplit(opt)
			return TimeSplitCSV(rows), RenderTimeSplit(rows), err
		}},
		{"chaos", func() (string, string, error) {
			pts, err := Chaos(opt, []int64{1, 2, 3})
			return ChaosCSV(pts), RenderChaos(pts), err
		}},
		{"mapcache", func() (string, string, error) {
			pts, err := MapCache(opt, nil)
			return MapCacheCSV(pts), RenderMapCache(pts), err
		}},
		{"workload", func() (string, string, error) {
			res, err := Workloads(opt, WorkloadConfig{})
			if err != nil {
				return "", "", err
			}
			return WorkloadCSV(res), RenderWorkload(res, hic.RoundRobin), nil
		}},
		{"ablations", func() (string, string, error) {
			csv, err := runAblations(opt)
			return csv, "", err
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			csv, txt, err := fig.out()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []struct{ ext, got string }{{".csv", csv}, {".txt", txt}} {
				if g.got == "" {
					continue
				}
				path := filepath.Join("testdata", fig.name+g.ext+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if g.got != string(want) {
					t.Errorf("%s output drifted from %s\n got:\n%s\nwant:\n%s", fig.name, path, g.got, want)
				}
			}
		})
	}
}
