package wave

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenTrace is a small fixed capture: a READ command burst, its tR
// busy window, a poll, and the data transfer — the Figure 9 shape.
func goldenTrace() []obs.Event {
	ns := func(n int64) sim.Time { return sim.Time(n * int64(sim.Nanosecond)) }
	read := []onfi.Latch{onfi.CmdLatch(onfi.CmdRead1), onfi.AddrLatch(0), onfi.AddrLatch(0), onfi.CmdLatch(onfi.CmdRead2)}
	status := []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}
	return []obs.Event{
		{Start: ns(0), End: ns(290), Kind: obs.KindBusCmdAddr, Chip: 0, Label: onfi.SummarizeLatches(read), Bytes: int32(len(read)), Depth: 1, OpID: 1},
		{Start: ns(290), End: ns(50290), Kind: obs.KindDieBusy, Chip: 0, Label: "tR", OpID: 1},
		{Start: ns(25000), End: ns(25080), Kind: obs.KindBusCmdAddr, Chip: 0, Label: onfi.SummarizeLatches(status), Bytes: int32(len(status)), OpID: 1},
		{Start: ns(25160), End: ns(25170), Kind: obs.KindBusDataOut, Chip: 0, Bytes: 1, Label: "data out", OpID: 1},
		{Start: ns(50400), End: ns(50500), Kind: obs.KindBusWait, Chip: -1, Label: "timer", OpID: 1},
		{Start: ns(50500), End: ns(71000), Kind: obs.KindBusDataOut, Chip: 0, Bytes: 4096, Label: "data out", OpID: 1},
	}
}

// The VCD rendering of a capture must stay byte-stable: the file format
// is an interchange surface (GTKWave, CI artifacts), so any drift in
// identifier assignment, edge ordering, or timescale is a breaking
// change this test makes loud. Regenerate deliberately with
// `go test ./internal/wave -run VCDGolden -update`.
func TestVCDGoldenRoundTrip(t *testing.T) {
	events := goldenTrace()
	var buf strings.Builder
	if err := WriteVCD(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "read.vcd.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("VCD output drifted from golden file %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// Controller events mixed into the capture must not change a byte.
	var again strings.Builder
	if err := WriteVCD(&again, interleave(events), 0); err != nil {
		t.Fatal(err)
	}
	if again.String() != got {
		t.Error("render with interleaved controller events differs from the first")
	}
}
