package babol_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/babol"
	"repro/internal/onfi"
	"repro/internal/sim"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := babol.NewSystem(babol.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Chips() != babol.Hynix().LUNsPerChannel {
		t.Errorf("default ways = %d", sys.Chips())
	}
	if sys.Waveform() == nil {
		t.Error("capture should default on")
	}
	if sys.Now() != 0 {
		t.Error("clock should start at zero")
	}
}

func TestSystemReadRoundTrip(t *testing.T) {
	sys, err := babol.NewSystem(babol.SystemConfig{Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	want := bytes.Repeat([]byte{0x5C}, 4096)
	if err := sys.Chip(1).SeedPage(onfi.RowAddr{Block: 3, Page: 2}, want); err != nil {
		t.Fatal(err)
	}
	var opErr error
	sys.Start(babol.OpRequest{
		Func: babol.ReadPage(onfi.Addr{Row: onfi.RowAddr{Block: 3, Page: 2}}, 0, 4096),
		Chip: 1,
		Done: func(err error) { opErr = err },
	})
	sys.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	got, err := sys.DRAM().Read(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("data mismatch through public API")
	}
	if sys.Waveform().Len() == 0 {
		t.Error("no waveform captured")
	}
	if sys.Controller().Stats().OpsCompleted != 1 {
		t.Error("stats not visible")
	}
}

func TestSystemEnvSelection(t *testing.T) {
	measure := func(env babol.Env) sim.Duration {
		sys, err := babol.NewSystem(babol.SystemConfig{Ways: 1, Env: env, DisableCapture: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Chip(0).SeedPage(onfi.RowAddr{}, []byte{1})
		var end sim.Time
		sys.Start(babol.OpRequest{
			Func: babol.ReadPage(onfi.Addr{}, 0, 512), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				end = sys.Now()
			},
		})
		sys.Run()
		return sim.Duration(end)
	}
	if rtos, coro := measure(babol.EnvRTOS), measure(babol.EnvCoro); coro <= rtos {
		t.Errorf("Coro (%v) should be slower than RTOS (%v)", coro, rtos)
	}
	if babol.EnvRTOS.String() != "RTOS" || babol.EnvCoro.String() != "Coro" {
		t.Error("env names")
	}
}

func TestSystemRejectsBadConfig(t *testing.T) {
	if _, err := babol.NewSystem(babol.SystemConfig{RateMT: 9999}); err == nil {
		t.Error("absurd rate accepted")
	}
	if _, err := babol.NewSystem(babol.SystemConfig{CPUMHz: -1}); err == nil {
		t.Error("negative CPU clock accepted")
	}
	// A 16-bit chip mask cannot select way 16: a 17-way channel once
	// built, and every operation on its last LUN failed.
	if _, err := babol.NewSystem(babol.SystemConfig{Ways: 17}); err == nil || !strings.Contains(err.Error(), "Ways 17") {
		t.Errorf("17 ways: %v, want an error naming Ways 17", err)
	}
	sys, err := babol.NewSystem(babol.SystemConfig{Ways: 16, DisableCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
}

func TestRunFor(t *testing.T) {
	sys, err := babol.NewSystem(babol.SystemConfig{Ways: 1, DisableCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.RunFor(5 * sim.Microsecond)
	if sys.Now() != sim.Time(5*sim.Microsecond) {
		t.Errorf("clock = %v", sys.Now())
	}
}
