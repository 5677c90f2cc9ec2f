package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.csv.golden from the current code")

// TestFigureGoldens holds every CSV a babolbench user can get at the
// default flags to checked-in bytes. The determinism tests compare the
// code with itself (parallel 1 vs 8, pooled vs unpooled), so they
// cannot see a change that moves both sides; these goldens can, and
// they are what a deletion or refactor of a simulation path diffs
// against. Regenerate only for an intended model change:
// `go test ./internal/exp -run TestFigureGoldens -update`.
func TestFigureGoldens(t *testing.T) {
	opt := Options{Ops: 24, Blocks: 16}
	figures := []struct {
		name string
		csv  func() (string, error)
	}{
		{"fig10", func() (string, error) {
			pts, err := Fig10(opt)
			return Fig10CSV(pts), err
		}},
		{"fig12", func() (string, error) {
			pts, err := Fig12(opt)
			return Fig12CSV(pts), err
		}},
		{"split", func() (string, error) {
			rows, err := TimeSplit(opt)
			return TimeSplitCSV(rows), err
		}},
		{"chaos", func() (string, error) {
			pts, err := Chaos(opt, []int64{1, 2, 3})
			return ChaosCSV(pts), err
		}},
		{"mapcache", func() (string, error) {
			pts, err := MapCache(opt, nil)
			return MapCacheCSV(pts), err
		}},
		{"workload", func() (string, error) {
			res, err := Workloads(opt, WorkloadConfig{})
			if err != nil {
				return "", err
			}
			return WorkloadCSV(res), nil
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			got, err := fig.csv()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fig.name+".csv.golden")
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
				t.Errorf("%s CSV drifted from %s\n got:\n%s\nwant:\n%s", fig.name, path, got, want)
			}
		})
	}
}
