package nand

import (
	"repro/internal/sim"
)

// Multi-plane operation support (ONFI 5.1 §5.9). A multi-plane package
// can run the same array operation on every plane concurrently: the
// controller queues one address per plane (32h for reads, 11h for
// programs, a second 60h for erases) and confirms once; the planes then
// share a single tR/tPROG/tBERS. The payoff is per-LUN parallelism — two
// planes read two pages in one array time.
//
// The queues live here; the confirms in lun.go run over the queued rows
// plus the confirming row, so a single-plane operation is the one-row
// case of a multi-plane one.

// tDBSY is the short busy window after queueing one plane of a
// multi-plane operation (the "dummy busy" of the spec).
const tDBSY = 1 * sim.Microsecond

// mpState holds the rows queued for a multi-plane confirm: by 32h, by 11h
// (each row's data waits in its plane's register) and by a repeated 60h
// (each block's first row). newMPState gives each queue one row per
// plane, and a confirm empties its queue and keeps the storage, so
// queueing never allocates.
type mpState struct {
	readRows, progRows, eraseRows []uint32
}

// newMPState carves the three queues out of one allocation.
func newMPState(planes int) mpState {
	rows := make([]uint32, 3*planes)
	return mpState{
		readRows:  rows[0:0:planes],
		progRows:  rows[planes : planes : 2*planes],
		eraseRows: rows[2*planes : 2*planes : 3*planes],
	}
}

// clear empties the queues, keeping their storage.
func (m *mpState) clear() {
	m.readRows, m.progRows, m.eraseRows = m.readRows[:0], m.progRows[:0], m.eraseRows[:0]
}

// planeOf reports the plane row lies on.
func (l *LUN) planeOf(row uint32) int { return l.geo.PlaneOf(int(row) / l.geo.PagesPerBlk) }

// plane returns the register of row's plane, making it at its first use.
func (l *LUN) plane(row uint32) []byte {
	p := l.planeOf(row)
	if l.planeRegs[p] == nil {
		l.planeRegs[p] = make([]byte, l.geo.FullPageBytes())
	}
	return l.planeRegs[p]
}

// checkPlane refuses row when a queued row already holds its plane.
func (l *LUN) checkPlane(queued []uint32, row uint32, op arrayOp) error {
	plane := l.planeOf(row)
	for _, r := range queued {
		if l.planeOf(r) == plane {
			return l.protoErr("multi-plane %v queued two rows on plane %d", op, plane)
		}
	}
	return nil
}

// queue appends row to the multi-plane queue q once its plane is free.
func (l *LUN) queue(q *[]uint32, row uint32, op arrayOp) error {
	if err := l.checkPlane(*q, row, op); err != nil {
		return err
	}
	*q = append(*q, row)
	return nil
}

// dummyBusy goes busy for tDBSY after a queued plane and returns the
// decoder to idle for the next one.
func (l *LUN) dummyBusy(now sim.Time) {
	l.busyUntil = now.Add(tDBSY)
	l.arrayBusyUntil = l.busyUntil
	l.dec = decIdle
}

// queueMPRead handles the 32h confirm: queue the row, go briefly busy.
func (l *LUN) queueMPRead(now sim.Time) error {
	addr, err := l.latchedAddr("multi-plane read")
	if err != nil {
		return err
	}
	if err := l.queue(&l.mp.readRows, l.rowIndex(addr.Row), arrRead); err != nil {
		return err
	}
	l.dummyBusy(now)
	return nil
}

// queueMPProgram handles the 11h confirm: queue the addressed row, stage
// the register in its plane's register, and go briefly busy.
func (l *LUN) queueMPProgram(now sim.Time) error {
	if err := l.queue(&l.mp.progRows, l.curRow, arrProgram); err != nil {
		return err
	}
	copy(l.plane(l.curRow), l.reg)
	l.dummyBusy(now)
	return nil
}

// queueMPErase handles a 60h that follows an erase row: queue the block
// and collect the next.
func (l *LUN) queueMPErase() error {
	row, err := l.latchedBlock("multi-plane erase")
	if err != nil {
		return err
	}
	l.addrBytes = l.addrBytes[:0]
	return l.queue(&l.mp.eraseRows, row, arrErase)
}

// selectPlane handles CHANGE READ COLUMN ENHANCED's confirm: point the
// page register at the chosen plane's register and set the column.
func (l *LUN) selectPlane(now sim.Time) error {
	if !l.Ready(now) {
		return l.protoErr("plane select while busy")
	}
	if len(l.addrBytes) != 5 {
		return l.protoErr("CHANGE READ COLUMN ENHANCED with %d address cycles", len(l.addrBytes))
	}
	addr, err := l.latchedAddr("plane select")
	if err != nil {
		return err
	}
	plane := l.geo.PlaneOf(addr.Row.Block)
	if l.planeRegs[plane] == nil {
		return l.protoErr("plane %d has no loaded data", plane)
	}
	l.setReg(l.planeRegs[plane], nil)
	l.column = int(addr.Col)
	l.setDataOut(outPage)
	l.dec = decIdle
	return nil
}
