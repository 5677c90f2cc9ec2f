package main

import (
	"testing"

	"repro/internal/hic"
	"repro/internal/ssd"
)

// TestSelectors pins the enumerated flags: every documented value
// resolves, and anything else is an error — `-pattern zipf -kind erase`
// used to run sequential reads under a header that said otherwise.
func TestSelectors(t *testing.T) {
	c, p, k, err := selectors("coro", "random", "write")
	if err != nil || c != ssd.CtrlBabolCoro || p != hic.Random || k != hic.KindWrite {
		t.Errorf("selectors(coro, random, write) = %v, %v, %v, %v", c, p, k, err)
	}
	c, p, k, err = selectors("hw", "sequential", "read")
	if err != nil || c != ssd.CtrlHW || p != hic.Sequential || k != hic.KindRead {
		t.Errorf("selectors(hw, sequential, read) = %v, %v, %v, %v", c, p, k, err)
	}
	if c, _, _, err = selectors("rtos", "sequential", "read"); err != nil || c != ssd.CtrlBabolRTOS {
		t.Errorf("selectors(rtos, …) = %v, %v", c, err)
	}
	for _, bad := range [][3]string{
		{"fpga", "random", "read"},
		{"rtos", "zipf", "read"},
		{"rtos", "Random", "read"},
		{"rtos", "random", "erase"},
		{"rtos", "random", ""},
		{"rtos", "zipf", "erase"},
	} {
		if _, _, _, err := selectors(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("selectors(%q, %q, %q) accepted", bad[0], bad[1], bad[2])
		}
	}
}
