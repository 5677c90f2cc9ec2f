package wave

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// WriteVCD renders the pin-level events of a trace as a Value Change
// Dump, the standard waveform interchange format — open the output in
// GTKWave (or any VCD viewer) to see the channel activity per chip
// exactly like the paper's logic-analyzer screenshots. Each chip gets
// three one-bit signals (cmd/addr, data-out, data-in) plus channel-level
// wait and busy lines. chips <= 0 sizes the dump from the events.
func WriteVCD(w io.Writer, events []obs.Event, chips int) error {
	if chips <= 0 {
		chips = 1
		for _, e := range events {
			if e.Kind.PinLevel() && int(e.Chip)+1 > chips {
				chips = int(e.Chip) + 1
			}
		}
	}

	// Identifier codes: printable ASCII starting at '!'.
	nextID := byte('!')
	id := func() string {
		c := nextID
		nextID++
		if nextID == '"' { // skip the quote for readability
			nextID++
		}
		return string(c)
	}

	type signal struct {
		name string
		code string
	}
	perChip := make([][3]signal, chips)
	kinds := [3]string{"cmdaddr", "dataout", "datain"}
	for c := 0; c < chips; c++ {
		for k, kn := range kinds {
			perChip[c][k] = signal{name: fmt.Sprintf("chip%d_%s", c, kn), code: id()}
		}
	}
	wait := signal{name: "timer_wait", code: id()}
	busy := signal{name: "lun_busy", code: id()}

	// Header.
	fmt.Fprintln(w, "$timescale 1ns $end")
	fmt.Fprintln(w, "$scope module babol_channel $end")
	for c := 0; c < chips; c++ {
		for k := range kinds {
			s := perChip[c][k]
			fmt.Fprintf(w, "$var wire 1 %s %s $end\n", s.code, s.name)
		}
	}
	fmt.Fprintf(w, "$var wire 1 %s %s $end\n", wait.code, wait.name)
	fmt.Fprintf(w, "$var wire 1 %s %s $end\n", busy.code, busy.name)
	fmt.Fprintln(w, "$upscope $end")
	fmt.Fprintln(w, "$enddefinitions $end")

	// Initial values.
	fmt.Fprintln(w, "$dumpvars")
	for c := 0; c < chips; c++ {
		for k := range kinds {
			fmt.Fprintf(w, "0%s\n", perChip[c][k].code)
		}
	}
	fmt.Fprintf(w, "0%s\n0%s\n", wait.code, busy.code)
	fmt.Fprintln(w, "$end")

	// Edge list.
	type edge struct {
		at   sim.Time
		code string
		v    byte
	}
	var edges []edge
	add := func(e obs.Event, code string) {
		edges = append(edges, edge{at: e.Start, code: code, v: '1'})
		edges = append(edges, edge{at: e.End, code: code, v: '0'})
	}
	for _, e := range events {
		chip := int(e.Chip)
		if chip < 0 || chip >= chips {
			chip = 0
		}
		switch e.Kind {
		case obs.KindBusCmdAddr:
			add(e, perChip[chip][0].code)
		case obs.KindBusDataOut:
			add(e, perChip[chip][1].code)
		case obs.KindBusDataIn:
			add(e, perChip[chip][2].code)
		case obs.KindBusWait:
			add(e, wait.code)
		case obs.KindDieBusy:
			add(e, busy.code)
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	lastTime := sim.Time(-1)
	for _, e := range edges {
		if e.at != lastTime {
			fmt.Fprintf(w, "#%d\n", int64(e.at)/int64(sim.Nanosecond))
			lastTime = e.at
		}
		fmt.Fprintf(w, "%c%s\n", e.v, e.code)
	}
	return nil
}
