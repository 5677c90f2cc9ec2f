package nand

import (
	"repro/internal/onfi"
	"repro/internal/sim"
)

// Multi-plane operation support (ONFI 5.1 §5.9). A multi-plane package
// can run the same array operation on every plane concurrently: the
// controller queues one address per plane (32h for reads, 11h for
// programs, a second 60h for erases) and confirms once; the planes then
// share a single tR/tPROG/tBERS. The payoff is per-LUN parallelism — two
// planes read two pages in one array time.
//
// The model stages queued rows and per-plane data here; the main decoder
// in lun.go dispatches into these helpers.

// tDBSY is the short busy window after queueing one plane of a
// multi-plane operation (the "dummy busy" of the spec).
const tDBSY = 1 * sim.Microsecond

// mpState holds in-flight multi-plane compositions.
type mpState struct {
	// readRows are rows queued with 32h awaiting the final 30h.
	readRows []uint32
	// planeData holds each plane's fetched page after a multi-plane
	// read completes; CHANGE READ COLUMN ENHANCED selects from it.
	planeData map[int][]byte
	// progRows/progData are pages staged with 11h awaiting the final 10h.
	progRows []uint32
	progData [][]byte
	// eraseRows are blocks queued by repeated 60h bursts.
	eraseRows []onfi.RowAddr
}

// queueMPRead handles the 32h confirm: remember the row, go briefly busy.
func (l *LUN) queueMPRead(now sim.Time) error {
	var a5 [5]byte
	copy(a5[:], l.addrBytes)
	addr := l.geo.DecodeAddr(a5)
	if err := l.geo.CheckAddr(addr); err != nil {
		return l.protoErr("multi-plane read address: %v", err)
	}
	row := l.rowIndex(addr.Row)
	plane := l.geo.PlaneOf(addr.Row.Block)
	for _, r := range l.mp.readRows {
		if l.geo.PlaneOf(l.rowOf(r).Block) == plane {
			return l.protoErr("multi-plane read queued two rows on plane %d", plane)
		}
	}
	l.mp.readRows = append(l.mp.readRows, row)
	l.busyUntil = now.Add(tDBSY)
	l.arrayBusyUntil = l.busyUntil
	l.dec = decIdle
	return nil
}

// finishMPRead handles the final 30h of a multi-plane read: every queued
// plane and the final row load concurrently, sharing one tR.
func (l *LUN) finishMPRead(now sim.Time, finalRow uint32) error {
	plane := l.geo.PlaneOf(l.rowOf(finalRow).Block)
	for _, r := range l.mp.readRows {
		if l.geo.PlaneOf(l.rowOf(r).Block) == plane {
			return l.protoErr("multi-plane read confirm reuses plane %d", plane)
		}
	}
	rows := append(append([]uint32{}, l.mp.readRows...), finalRow)
	l.mp.readRows = nil
	l.mp.planeData = make(map[int][]byte)
	var worst sim.Duration
	for _, r := range rows {
		data := make([]byte, l.geo.FullPageBytes())
		l.readArrayInto(r, data)
		l.mp.planeData[l.geo.PlaneOf(l.rowOf(r).Block)] = data
		if d := l.jitterFor(r, l.params.TR); d > worst {
			worst = d
		}
		l.stats.Reads++
	}
	// The final row's data also lands in the ordinary page register, so
	// plain CHANGE READ COLUMN keeps working. Plane buffers are private
	// allocations, so the register view may alias them without holding
	// a reference.
	l.loadPending = true
	l.setLoad(l.mp.planeData[plane], nil)
	l.curOp = arrRead
	l.curRow = finalRow
	l.cacheRow = finalRow
	l.arrayBusyUntil = now.Add(worst)
	l.busyUntil = l.arrayBusyUntil
	l.setDataOut(outPage)
	l.dec = decIdle
	l.failPrev = l.failLast
	l.failLast = false
	return nil
}

// selectPlane handles CHANGE READ COLUMN ENHANCED's confirm: route the
// chosen plane's data into the page register and set the column.
func (l *LUN) selectPlane(now sim.Time) error {
	if !l.Ready(now) {
		return l.protoErr("plane select while busy")
	}
	if len(l.addrBytes) != 5 {
		return l.protoErr("CHANGE READ COLUMN ENHANCED with %d address cycles", len(l.addrBytes))
	}
	var a5 [5]byte
	copy(a5[:], l.addrBytes)
	addr := l.geo.DecodeAddr(a5)
	if err := l.geo.CheckAddr(addr); err != nil {
		return l.protoErr("plane select address: %v", err)
	}
	plane := l.geo.PlaneOf(addr.Row.Block)
	data, ok := l.mp.planeData[plane]
	if !ok {
		return l.protoErr("plane %d has no loaded data", plane)
	}
	l.setReg(data, nil)
	l.column = int(addr.Col)
	l.setDataOut(outPage)
	l.dec = decIdle
	return nil
}

// queueMPProgram handles the 11h confirm: stage the page register for
// the addressed row and go briefly busy awaiting the next plane.
func (l *LUN) queueMPProgram(now sim.Time) error {
	plane := l.geo.PlaneOf(l.rowOf(l.curRow).Block)
	for _, r := range l.mp.progRows {
		if l.geo.PlaneOf(l.rowOf(r).Block) == plane {
			return l.protoErr("multi-plane program queued two rows on plane %d", plane)
		}
	}
	data := make([]byte, len(l.pageReg))
	copy(data, l.reg)
	l.mp.progRows = append(l.mp.progRows, l.curRow)
	l.mp.progData = append(l.mp.progData, data)
	l.busyUntil = now.Add(tDBSY)
	l.arrayBusyUntil = l.busyUntil
	l.dec = decIdle
	return nil
}

// finishMPProgram commits every staged plane plus the current register
// in one shared tPROG. Any plane's failure raises FAIL.
func (l *LUN) finishMPProgram(now sim.Time, slc bool) error {
	plane := l.geo.PlaneOf(l.rowOf(l.curRow).Block)
	for _, r := range l.mp.progRows {
		if l.geo.PlaneOf(l.rowOf(r).Block) == plane {
			return l.protoErr("multi-plane program confirm reuses plane %d", plane)
		}
	}
	rows := append(append([]uint32{}, l.mp.progRows...), l.curRow)
	datas := append(append([][]byte{}, l.mp.progData...), l.reg)
	l.mp.progRows = nil
	l.mp.progData = nil

	tp := l.params.TPROG
	if slc {
		tp = l.params.TPROGSLC
	}
	var worst sim.Duration
	l.failPrev = l.failLast
	l.failLast = false
	for i, row := range rows {
		block := int(row) / l.geo.PagesPerBlk
		switch {
		case l.bad[block], l.programmed(row):
			l.failLast = true
		default:
			l.storePage(row, datas[i])
		}
		if d := l.jitterFor(row, tp); d > worst {
			worst = d
		}
		l.stats.Programs++
	}
	l.curOp = arrProgram
	l.arrayBusyUntil = now.Add(worst)
	l.busyUntil = l.arrayBusyUntil
	l.dec = decIdle
	return nil
}
