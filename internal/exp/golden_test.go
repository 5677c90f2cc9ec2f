package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestFigureGoldens holds every CSV a babolbench user can get at the
// default flags, and the Fig. 9/11 analyzer text, to checked-in bytes. The determinism tests compare the
// code with itself (parallel 1 vs 8, pooled vs unpooled), so they
// cannot see a change that moves both sides; these goldens can, and
// they are what a deletion or refactor of a simulation path diffs
// against. Regenerate only for an intended model change:
// `go test ./internal/exp -run TestFigureGoldens -update`.
func TestFigureGoldens(t *testing.T) {
	opt := Options{Ops: 24, Blocks: 16}
	figures := []struct {
		name string
		ext  string // golden file suffix: ".csv" or ".txt"
		out  func() (string, error)
	}{
		{"fig10", ".csv", func() (string, error) {
			pts, err := Fig10(opt)
			return Fig10CSV(pts), err
		}},
		{"fig12", ".csv", func() (string, error) {
			pts, err := Fig12(opt)
			return Fig12CSV(pts), err
		}},
		{"split", ".csv", func() (string, error) {
			rows, err := TimeSplit(opt)
			return TimeSplitCSV(rows), err
		}},
		{"chaos", ".csv", func() (string, error) {
			pts, err := Chaos(opt, []int64{1, 2, 3})
			return ChaosCSV(pts), err
		}},
		{"mapcache", ".csv", func() (string, error) {
			pts, err := MapCache(opt, nil)
			return MapCacheCSV(pts), err
		}},
		{"workload", ".csv", func() (string, error) {
			res, err := Workloads(opt, WorkloadConfig{})
			if err != nil {
				return "", err
			}
			return WorkloadCSV(res), nil
		}},
		{"fig9", ".txt", Fig9},
		{"fig11", ".txt", func() (string, error) {
			res, err := Fig11(opt)
			return RenderFig11(res), err
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			got, err := fig.out()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fig.name+fig.ext+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from %s\n got:\n%s\nwant:\n%s", fig.name, path, got, want)
			}
		})
	}
}
