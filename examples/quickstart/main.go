// Quickstart: build a BABOL system, program a page, read it back, and
// print the channel waveform — the fastest tour of the public API.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/babol"
	"repro/internal/onfi"
	"repro/internal/wave"
)

func main() {
	// A default system: Hynix packages (Table I), 8 LUNs, 200 MT/s,
	// RTOS software environment on a 1 GHz firmware core.
	sys, err := babol.NewSystem(babol.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Stage a page of data in DRAM at address 0.
	payload := bytes.Repeat([]byte("BABOL! "), 2400)[:16384]
	if err := sys.DRAM().Write(0, payload); err != nil {
		log.Fatal(err)
	}

	// PROGRAM it to chip 2, block 5, page 0, then READ it back to DRAM
	// address 65536. Operations run asynchronously in virtual time;
	// chaining happens in completion callbacks.
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 5, Page: 0}}
	sys.Start(babol.OpRequest{
		Func: babol.ProgramPage(addr, 0, 16384),
		Chip: 2,
		Done: func(err error) {
			if err != nil {
				log.Fatal("program failed: ", err)
			}
			fmt.Printf("programmed 16 KiB at t=%v\n", sys.Now())
			sys.Start(babol.OpRequest{
				Func: babol.ReadPage(addr, 65536, 16384),
				Chip: 2,
				Done: func(err error) {
					if err != nil {
						log.Fatal("read failed: ", err)
					}
					fmt.Printf("read back 16 KiB at t=%v\n", sys.Now())
				},
			})
		},
	})

	// Run the simulation to completion.
	sys.Run()

	// Verify the round trip.
	got, err := sys.DRAM().Read(65536, 16384)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("data mismatch!")
	}
	fmt.Println("round trip verified ✓")

	// Show the first few waveform segments the controller emitted, as a
	// logic analyzer lists them.
	fmt.Println("\nchannel waveform (first segments):")
	segs := sys.Waveform().Events()
	fmt.Print(wave.Render(segs[:min(8, len(segs))]))
	if len(segs) > 8 {
		fmt.Printf("… %d more segments\n", len(segs)-8)
	}

	st := sys.Controller().Stats()
	fmt.Printf("\ncontroller: %d operations, %d transactions executed\n",
		st.OpsCompleted, st.TxnsExecuted)
}
