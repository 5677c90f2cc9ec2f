package nand

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/onfi"
	"repro/internal/pagebuf"
	"repro/internal/sim"
)

// ErrNotSuspendable reports a SUSPEND latched when no PROGRAM/ERASE is
// in flight — typically a benign race where the array finished just
// before the suspend arrived. Callers match it with errors.Is.
var ErrNotSuspendable = errors.New("no suspendable operation in flight")

// decodeState tracks where the LUN's command decoder is within a
// multi-latch command sequence.
type decodeState uint8

const (
	decIdle decodeState = iota
	decReadAddr
	decReadConfirm
	decChgRdColAddr
	decChgWrColAddr
	decProgramAddr
	decProgramData
	decEraseAddr
	decCopybackAddr
	decPlaneSelAddr
	decReadIDAddr
	decSetFeatAddr
	decSetFeatData
	decGetFeatAddr
)

// arrayOp is the operation currently occupying the flash array.
type arrayOp uint8

const (
	arrNone arrayOp = iota
	arrRead
	arrProgram
	arrErase
	arrReset
)

func (o arrayOp) String() string {
	switch o {
	case arrRead:
		return "read"
	case arrProgram:
		return "program"
	case arrErase:
		return "erase"
	case arrReset:
		return "reset"
	default:
		return "none"
	}
}

// outputSource selects what DataOut streams.
type outputSource uint8

const (
	outNone outputSource = iota
	outStatus
	outPage
	outCache
	outID
	outFeature
	outParamPage
)

// tSuspend is the latency of accepting a PROGRAM/ERASE suspend.
const tSuspend = 20 * sim.Microsecond

// tResetIdle is the RESET busy time from an idle state.
const tResetIdle = 5 * sim.Microsecond

// TResetAbort is the RESET busy time when an array operation must be
// aborted — the worst-case RESET latency a recovery flow waits out.
const TResetAbort = 500 * sim.Microsecond

// tParamPage is the array time to fetch the parameter page.
const tParamPage = 25 * sim.Microsecond

// defaultPhase is the DQS phase register's power-on value.
const defaultPhase = 8

// Timing-mode feature encoding (simplified ONFI timing-mode byte): the
// high nibble selects the data interface.
const (
	sdrMode    = 0x00 // asynchronous SDR, ≤50 MT/s
	nvddrMode  = 0x10 // NV-DDR, ≤200 MT/s
	nvddr2Mode = 0x15 // NV-DDR2 mode 5, ≤533 MT/s
)

// MaxRateMT reports the fastest data-burst rate the LUN's current timing
// mode supports. Command/address latches are always legal (ONFI keeps
// them mode-agnostic so a controller can talk to a freshly booted part).
func (l *LUN) MaxRateMT() int {
	mode := l.features[onfi.FeatTimingMode][0]
	switch {
	case mode >= nvddr2Mode:
		return onfi.NVDDR2.MaxRateMT()
	case mode >= nvddrMode:
		return onfi.NVDDR.MaxRateMT()
	default:
		return onfi.SDR.MaxRateMT()
	}
}

// phaseTolerance is how far the phase register may sit from the
// instance's optimum before reads corrupt.
const phaseTolerance = 1

// LUN is one logical unit: a flash array plus its page and cache
// registers and command decoder. The channel bus drives it through Latch,
// DataIn, and DataOut; all methods take the current virtual time so the
// LUN can expire its busy intervals.
type LUN struct {
	params Params
	geo    onfi.Geometry

	// Array contents: blocks[b][p] is page p of block b (nil = erased,
	// and a row is programmed exactly when it holds a page; see page).
	// A block's table runs only to its highest stored page, since NAND
	// programs a block's pages in order, and the outer slice is made at
	// the first store. An erase releases the block's pages.
	blocks [][]*pagebuf.Buf
	// pool is this LUN's own arena of full-page buffers.
	pool *pagebuf.Pool
	// Per-block erase counts and bad-block marks.
	eraseCount []int
	bad        []bool

	// Registers. The page register is reg (below), which owns a page
	// only while the controller writes it. planeRegs holds one register
	// per plane, each made at its first use: a multi-plane read or a
	// load that must be materialized (fault corruption or wear errors)
	// reads into the row's plane register, and 11h stages a plane's data
	// in it. The cache register is made at its first use too (every
	// access goes through cache), so a LUN that never cache-reads or
	// runs GET FEATURES holds none.
	planeRegs [][]byte
	cacheReg  []byte
	column    int

	// Decoder state.
	dec       decodeState
	addrBytes []byte
	out       outputSource
	// lastDataOut remembers the data source READ STATUS interrupted, so
	// the ONFI READ MODE command (a bare 00h) can resume it.
	lastDataOut outputSource
	idOffset    int

	// Busy tracking. busyUntil gates command acceptance (RDY);
	// arrayBusyUntil gates the array (ARDY) and can extend past busyUntil
	// during cache operations.
	busyUntil      sim.Time
	arrayBusyUntil sim.Time
	curOp          arrayOp
	curRow         uint32

	// Pending-load bookkeeping: a read in flight hands loadData to the
	// register when the array busy expires. loadData aliases the stored
	// page or the erased template for a clean single-plane read, and the
	// row's plane register otherwise (see loadRow).
	loadPending bool
	loadData    []byte

	// reg is the page-register content. At power-on it aliases the
	// shared zero page; settle points it at a load, read-only, so clean
	// reads skip the array→register full-page copies: a stored page, a
	// plane register, or the erased template. Only a writer owns it
	// (regOwned): 80h and ownReg take a page of the LUN's arena, and a
	// program confirm installs that very page in the array, after which
	// the register aliases it read-only. regPage holds the register's
	// reference to its page, stored or owned (loadPage the pending
	// load's), so programming or erasing the row leaves the aliased
	// bytes intact.
	reg      []byte
	regPage  *pagebuf.Buf
	regOwned bool
	loadPage *pagebuf.Buf
	// erasedFF backs reads of erased rows: the process-wide all-0xFF
	// page of this page size (sharedPage), shared by every LUN and
	// never written.
	erasedFF []byte

	// Cache-read sequencing.
	cacheRow     uint32
	cachePending bool // a 0x31/0x3F asked for reg→cacheReg at ARDY

	// Suspension.
	suspended     bool
	suspendRem    sim.Duration
	suspendedOp   arrayOp
	suspendedFail bool // the suspended op's FAIL, restored on resume

	// Mode flags.
	pslcNext bool // next array op runs in pseudo-SLC timing
	features map[onfi.FeatureAddr][4]byte

	// mp queues the rows of multi-plane operations (see multiplane.go).
	mp mpState

	// paramPage is the rendered ONFI parameter page, made by the first
	// READ PARAMETER PAGE.
	paramPage []byte
	// phaseOptimal is this instance's clean DQS phase (from Params,
	// defaulted).
	phaseOptimal int

	// Failure flags surfaced in the status register.
	failLast bool
	failPrev bool

	// faults, when non-nil, perturbs array operations (see fault.go).
	faults FaultInjector

	// Stats.
	stats Stats
}

// Stats counts LUN-level activity.
type Stats struct {
	Reads, Programs, Erases uint64
	StatusReads             uint64
	ProtocolErrors          uint64
	InjectedBitErrors       uint64
	SuspendCount, ResumeCnt uint64
}

// NewLUN builds a LUN from params. All blocks start erased with zero wear.
func NewLUN(p Params) (*LUN, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Geometry
	l := &LUN{
		params:       p,
		geo:          g,
		pool:         pagebuf.NewPool(g.FullPageBytes()),
		eraseCount:   make([]int, g.BlocksPerLUN),
		bad:          make([]bool, g.BlocksPerLUN),
		planeRegs:    make([][]byte, g.Planes),
		mp:           newMPState(g.Planes),
		erasedFF:     sharedPage(g.FullPageBytes(), 0xFF),
		features:     make(map[onfi.FeatureAddr][4]byte),
		phaseOptimal: p.PhaseOptimal,
	}
	if l.phaseOptimal == 0 {
		l.phaseOptimal = defaultPhase
	}
	// The power-on register reads as zeros.
	l.reg = sharedPage(g.FullPageBytes(), 0)
	l.powerOnFeatures()
	return l, nil
}

// sharedKey names one shared page: its size and the byte it repeats.
type sharedKey struct {
	size int
	fill byte
}

var (
	sharedMu sync.Mutex
	shared   = map[sharedKey][]byte{}
)

// sharedPage returns the process-wide page of size bytes that repeats
// fill: all-0xFF for erased rows, zeros for the power-on register. Every
// LUN of that page size shares it, so nothing may write to it: reads
// alias it, and a register that must change copies it first.
func sharedPage(size int, fill byte) []byte {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	k := sharedKey{size, fill}
	pg, ok := shared[k]
	if !ok {
		pg = bytes.Repeat([]byte{fill}, size)
		shared[k] = pg
	}
	return pg
}

// cache returns the cache register, making it (zeroed, as at power-on)
// at its first use.
func (l *LUN) cache() []byte {
	if l.cacheReg == nil {
		l.cacheReg = make([]byte, l.geo.FullPageBytes())
	}
	return l.cacheReg
}

// powerOnFeatures loads the volatile feature registers with their
// power-on defaults. RESET returns the target to this state (ONFI: SET
// FEATURES settings are volatile and revert on reset).
func (l *LUN) powerOnFeatures() {
	for k := range l.features {
		delete(l.features, k)
	}
	// The phase trim register powers on at its default.
	l.features[onfi.FeatOutputPhase] = [4]byte{defaultPhase}
	// Timing mode register: ONFI mode 5 (NVDDR2) unless the instance
	// powers up in SDR and must be switched by the boot flow.
	if !l.params.BootInSDR {
		l.features[onfi.FeatTimingMode] = [4]byte{nvddr2Mode}
	}
}

// Params returns the LUN's parameter set.
func (l *LUN) Params() Params { return l.params }

// Stats returns a snapshot of the activity counters.
func (l *LUN) Stats() Stats { return l.stats }

// rowIndex flattens a row address.
func (l *LUN) rowIndex(r onfi.RowAddr) uint32 {
	return uint32(r.Block)*uint32(l.geo.PagesPerBlk) + uint32(r.Page)
}

func (l *LUN) rowOf(idx uint32) onfi.RowAddr {
	return onfi.RowAddr{Block: int(idx) / l.geo.PagesPerBlk, Page: int(idx) % l.geo.PagesPerBlk}
}

// jitterFor deterministically scales d by the per-page variation for row.
func (l *LUN) jitterFor(row uint32, d sim.Duration) sim.Duration {
	if l.params.JitterPct == 0 {
		return d
	}
	b := [4]byte{byte(row), byte(row >> 8), byte(row >> 16), byte(row >> 24)}
	// Map hash to [-JitterPct, +JitterPct] percent.
	span := int64(2*l.params.JitterPct + 1)
	pct := int64(fnv1a(b[:]))%span - int64(l.params.JitterPct)
	return d + sim.Duration(int64(d)*pct/100)
}

// Ready reports whether the LUN accepts new commands at time now.
func (l *LUN) Ready(now sim.Time) bool { return now >= l.busyUntil }

// ReadyAt reports when the LUN's R/B# pin deasserts — the dedicated
// ready/busy line hardware controllers monitor instead of polling READ
// STATUS over the shared channel.
func (l *LUN) ReadyAt() sim.Time { return l.busyUntil }

// ArrayReady reports whether the flash array is idle at time now.
func (l *LUN) ArrayReady(now sim.Time) bool { return now >= l.arrayBusyUntil }

// Status computes the status-register byte at time now.
func (l *LUN) Status(now sim.Time) byte {
	l.settle(now)
	var s byte = onfi.StatusWP
	if l.Ready(now) {
		s |= onfi.StatusRDY
	}
	if l.ArrayReady(now) {
		s |= onfi.StatusARDY
	}
	if l.failLast {
		s |= onfi.StatusFail
	}
	if l.failPrev {
		s |= onfi.StatusFailC
	}
	return s
}

// settle applies any state transitions whose time has arrived: pending
// page loads and cache transfers.
func (l *LUN) settle(now sim.Time) {
	// Reads are never suspendable, so a pending load settles regardless of
	// a suspended PROGRAM/ERASE.
	if l.loadPending && now >= l.arrayBusyUntil {
		// The register aliases the load until a mutator claims it
		// (ownReg) — no page copy on the read hot path. The load's
		// reference moves to the register.
		l.setReg(l.loadData, l.loadPage)
		l.loadPage = nil
		l.loadPending = false
		l.curOp = arrNone
	}
	if l.cachePending && now >= l.arrayBusyUntil {
		copy(l.cache(), l.reg)
		l.cachePending = false
	}
}

// setDataOut switches the output source to a data register and records
// it for READ MODE resumption.
func (l *LUN) setDataOut(src outputSource) {
	l.out = src
	l.lastDataOut = src
}

func (l *LUN) protoErr(format string, args ...interface{}) error {
	l.stats.ProtocolErrors++
	return fmt.Errorf("nand/%s: %s", l.params.Name, fmt.Sprintf(format, args...))
}

// Latch feeds one command/address latch burst into the decoder, as the
// Command/Address Writer µFSM would drive it on the pins. The burst may
// carry any legal mix of command and address cycles.
func (l *LUN) Latch(now sim.Time, latches []onfi.Latch) error {
	l.settle(now)
	for _, latch := range latches {
		var err error
		if latch.Kind == onfi.LatchCmd {
			err = l.command(now, onfi.Cmd(latch.Value))
		} else {
			err = l.address(now, latch.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *LUN) command(now sim.Time, c onfi.Cmd) error {
	// Commands legal while busy.
	switch c {
	case onfi.CmdReadStatus, onfi.CmdReadStatusEnh:
		l.out = outStatus
		l.dec = decIdle
		l.stats.StatusReads++
		return nil
	case onfi.CmdReset, onfi.CmdSynchronousReset:
		return l.reset(now)
	case onfi.CmdSuspend:
		return l.suspend(now)
	case onfi.CmdResume:
		return l.resume(now)
	}

	if !l.Ready(now) {
		return l.protoErr("command %v while busy until %v (now %v)", c, l.busyUntil, now)
	}

	switch l.dec {
	case decIdle:
		switch c {
		case onfi.CmdRead1:
			l.dec = decReadAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdChangeReadCol1:
			l.dec = decChgRdColAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdChangeReadColE1:
			l.dec = decPlaneSelAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdProgram1:
			l.dec = decProgramAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdErase1:
			l.dec = decEraseAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdReadID:
			l.dec = decReadIDAddr
		case onfi.CmdReadParameterPg:
			if l.paramPage == nil {
				l.paramPage = buildParameterPage(l.params)
			}
			l.dec = decReadIDAddr
			l.setDataOut(outParamPage)
		case onfi.CmdSetFeatures:
			l.dec = decSetFeatAddr
		case onfi.CmdGetFeatures:
			l.dec = decGetFeatAddr
		case onfi.CmdCopybackProgram:
			// COPYBACK PROGRAM: target address follows; the page
			// register keeps the copyback-read content (unlike 80h,
			// which clears it to all-ones).
			l.dec = decCopybackAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdPSLCEnable:
			if l.params.TRSLC == 0 {
				return l.protoErr("package does not support pSLC")
			}
			l.pslcNext = true
		case onfi.CmdCacheRead:
			return l.startCacheNext(now)
		case onfi.CmdCacheReadEnd:
			return l.endCache(now)
		default:
			return l.protoErr("unexpected command %v in idle state", c)
		}
	case decReadConfirm:
		switch c {
		case onfi.CmdRead2:
			return l.startRead(now, false)
		case onfi.CmdCacheRead:
			return l.startRead(now, true)
		case onfi.CmdCopybackRead:
			// READ FOR COPYBACK: same array fetch; the register content
			// is then consumed by COPYBACK PROGRAM instead of the bus.
			return l.startRead(now, false)
		case onfi.CmdMPReadQueue:
			return l.queueMPRead(now)
		default:
			return l.protoErr("expected READ confirm, got %v", c)
		}
	case decChgRdColAddr:
		if c == onfi.CmdChangeReadCol2 {
			if len(l.addrBytes) != 2 {
				return l.protoErr("CHANGE READ COLUMN with %d address cycles", len(l.addrBytes))
			}
			col, err := l.latchedColumn()
			if err != nil {
				return err
			}
			l.column = col
			if l.out != outCache {
				l.setDataOut(outPage)
			}
			l.dec = decIdle
			return nil
		}
		return l.protoErr("expected CHANGE READ COLUMN confirm, got %v", c)
	case decPlaneSelAddr:
		if c == onfi.CmdChangeReadCol2 {
			return l.selectPlane(now)
		}
		return l.protoErr("expected CHANGE READ COLUMN ENHANCED confirm, got %v", c)
	case decProgramData:
		switch c {
		case onfi.CmdProgram2:
			return l.startProgram(now, false)
		case onfi.CmdMPProgramQueue:
			return l.queueMPProgram(now)
		case onfi.CmdCacheProgram2:
			return l.startProgram(now, true)
		case onfi.CmdChangeWriteCol:
			l.dec = decChgWrColAddr
			l.addrBytes = l.addrBytes[:0]
			return nil
		default:
			return l.protoErr("expected PROGRAM confirm, got %v", c)
		}
	case decCopybackAddr:
		if c == onfi.CmdProgram2 {
			return l.startProgram(now, false)
		}
		return l.protoErr("expected COPYBACK PROGRAM confirm, got %v", c)
	case decEraseAddr:
		switch c {
		case onfi.CmdErase2:
			return l.startErase(now)
		case onfi.CmdErase1:
			return l.queueMPErase()
		}
		return l.protoErr("expected ERASE confirm, got %v", c)
	default:
		return l.protoErr("unexpected command %v in decode state %d", c, l.dec)
	}
	return nil
}

func (l *LUN) address(now sim.Time, b byte) error {
	if !l.Ready(now) {
		return l.protoErr("address cycle while busy")
	}
	switch l.dec {
	case decReadAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			l.dec = decReadConfirm
		}
	case decChgRdColAddr, decChgWrColAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 2 {
			return l.protoErr("too many column address cycles")
		}
		if l.dec == decChgWrColAddr && len(l.addrBytes) == 2 {
			// CHANGE WRITE COLUMN has no confirm: the second column
			// cycle moves the load point, and data in resumes there.
			col, err := l.latchedColumn()
			if err != nil {
				return err
			}
			l.column = col
			l.dec = decProgramData
		}
	case decProgramAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			addr, err := l.latchedAddr("program")
			if err != nil {
				return err
			}
			l.curRow = l.rowIndex(addr.Row)
			l.column = int(addr.Col)
			// Program loads start from an all-ones register (NAND can
			// only clear bits). The fill overwrites everything, so an
			// alias is dropped rather than copied.
			l.ownReg(false)
			copy(l.reg, l.erasedFF)
			l.dec = decProgramData
		}
	case decPlaneSelAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 5 {
			return l.protoErr("too many plane-select address cycles")
		}
	case decCopybackAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			addr, err := l.latchedAddr("copyback")
			if err != nil {
				return err
			}
			// Target latched; page register untouched — it still holds
			// the copyback-read data. Await the 10h confirm.
			l.curRow = l.rowIndex(addr.Row)
			l.column = int(addr.Col)
		}
		if len(l.addrBytes) > 5 {
			return l.protoErr("too many copyback address cycles")
		}
	case decEraseAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 3 {
			return l.protoErr("too many erase address cycles")
		}
	case decReadIDAddr:
		l.idOffset = int(b)
		if l.out == outParamPage {
			// READ PARAMETER PAGE: the array needs time to fetch the
			// page before it can stream out.
			l.column = 0
			l.busyUntil = now.Add(tParamPage)
			l.arrayBusyUntil = l.busyUntil
		} else {
			l.out = outID
			l.column = 0
		}
		l.dec = decIdle
	case decSetFeatAddr:
		l.addrBytes = []byte{b}
		l.dec = decSetFeatData
	case decGetFeatAddr:
		feat := l.features[onfi.FeatureAddr(b)]
		copy(l.cache(), feat[:])
		l.out = outFeature
		l.column = 0
		l.dec = decIdle
	default:
		return l.protoErr("unexpected address cycle in decode state %d", l.dec)
	}
	return nil
}

// latchedColumn decodes the two latched column cycles of a CHANGE READ
// or CHANGE WRITE COLUMN and bounds the column to the page register.
func (l *LUN) latchedColumn() (int, error) {
	col := int(onfi.DecodeColAddr([2]byte{l.addrBytes[0], l.addrBytes[1]}))
	if col >= l.geo.FullPageBytes() {
		return 0, l.protoErr("column %d out of range", col)
	}
	return col, nil
}

// latchedAddr decodes the five latched address cycles and checks them
// against the geometry; what names the command in the error.
func (l *LUN) latchedAddr(what string) (onfi.Addr, error) {
	addr := l.geo.DecodeAddr([5]byte(l.addrBytes))
	if err := l.geo.CheckAddr(addr); err != nil {
		return addr, l.protoErr("%s address: %v", what, err)
	}
	return addr, nil
}

// latchedBlock decodes the three latched row cycles of an ERASE to the
// first row of their block, which must lie in the LUN; what names the
// command in the error.
func (l *LUN) latchedBlock(what string) (uint32, error) {
	if len(l.addrBytes) != 3 {
		return 0, l.protoErr("%s with %d address cycles", what, len(l.addrBytes))
	}
	r := l.geo.DecodeRowAddr([3]byte(l.addrBytes))
	if r.Block >= l.geo.BlocksPerLUN {
		return 0, l.protoErr("%s block %d out of range", what, r.Block)
	}
	return l.rowIndex(onfi.RowAddr{Block: r.Block}), nil
}

// startArray starts op on the rows queued in q plus the confirming row,
// once no two of them share a plane. It empties q, keeping its storage,
// and returns the rows, confirming row last, with the fault outcome the
// injector picks for the confirming row. The array runs for the slowest
// row's jittered base time (slc under an A2h prefix, which it consumes),
// stretched by the outcome's delay or stuck by it; FAIL moves to FAILC
// and the decoder returns to idle. The caller applies op to each row and
// sets RDY.
func (l *LUN) startArray(now sim.Time, op arrayOp, q *[]uint32, row uint32, base, slc sim.Duration) ([]uint32, FaultOutcome, error) {
	if err := l.checkPlane(*q, row, op); err != nil {
		return nil, FaultOutcome{}, err
	}
	rows := append(*q, row)
	*q = rows[:0]
	var fo FaultOutcome
	if l.faults != nil {
		switch op {
		case arrRead:
			fo = l.faults.OnRead(now, row)
		case arrProgram:
			fo = l.faults.OnProgram(now, row)
		default:
			fo = l.faults.OnErase(now, int(row)/l.geo.PagesPerBlk)
		}
	}
	if l.pslcNext {
		base = slc
		l.pslcNext = false
	}
	var worst sim.Duration
	for _, r := range rows {
		worst = max(worst, l.jitterFor(r, base))
	}
	l.curOp = op
	l.curRow = row
	l.arrayBusyUntil = now.Add(worst + fo.Delay)
	if fo.Stuck {
		l.arrayBusyUntil = stuckUntil
	}
	l.failPrev = l.failLast
	l.failLast = false
	l.dec = decIdle
	return rows, fo, nil
}

// startRead begins the array read of the queued planes plus the latched
// row. Each queued row reads into its plane's register, and so does the
// latched row of a multi-plane read, so that 06h…E0h can select any of
// them. A cache confirm (31h) sends the page on to the cache register at
// ARDY and keeps the LUN RDY for the transfer of the previous page.
func (l *LUN) startRead(now sim.Time, cache bool) error {
	addr, err := l.latchedAddr("read")
	if err != nil {
		return err
	}
	row := l.rowIndex(addr.Row)
	l.column = int(addr.Col)
	rows, fo, err := l.startArray(now, arrRead, &l.mp.readRows, row, l.params.TR, l.params.TRSLC)
	if err != nil {
		return err
	}
	for _, r := range rows[:len(rows)-1] {
		l.readArrayInto(r, l.plane(r))
	}
	l.loadRow(row, fo.Corrupt, len(rows) > 1)
	l.cacheRow = row
	if cache {
		l.cachePending = true
		l.setDataOut(outCache)
	} else {
		l.busyUntil = l.arrayBusyUntil
		l.setDataOut(outPage)
	}
	l.stats.Reads += uint64(len(rows))
	return nil
}

// startCacheNext handles a bare 0x31: load the next sequential page into
// the page register while the cache register is transferred out.
func (l *LUN) startCacheNext(now sim.Time) error {
	if !l.ArrayReady(now) {
		return l.protoErr("cache-read continue while array busy")
	}
	next := l.cacheRow + 1
	if int(next) >= l.geo.Pages() {
		return l.protoErr("cache read past end of LUN")
	}
	l.settle(now)
	// Current page register content moves to cache for output.
	copy(l.cache(), l.reg)
	l.cacheRow = next
	l.curOp = arrRead
	l.curRow = next
	l.loadRow(next, false, false)
	l.arrayBusyUntil = now.Add(l.jitterFor(next, l.params.TR))
	l.setDataOut(outCache)
	l.column = 0
	l.stats.Reads++
	return nil
}

// endCache handles 0x3F: transfer the last loaded page to the cache
// register with no further array read.
func (l *LUN) endCache(now sim.Time) error {
	if !l.ArrayReady(now) {
		l.cachePending = true
	} else {
		l.settle(now)
		copy(l.cache(), l.reg)
	}
	l.setDataOut(outCache)
	l.column = 0
	return nil
}

// startProgram programs the queued planes from their registers and the
// latched row from the page register. A bad block, a programmed row
// (NAND forbids re-programming without an erase) or an injected failure
// of the latched row raises FAIL and leaves that row unchanged. A cache
// program (15h) holds RDY only for the register hand-off.
func (l *LUN) startProgram(now sim.Time, cached bool) error {
	row := l.curRow
	rows, fo, err := l.startArray(now, arrProgram, &l.mp.progRows, row, l.params.TPROG, l.params.TPROGSLC)
	if err != nil {
		return err
	}
	for _, r := range rows {
		switch {
		case fo.Fail && r == row, l.bad[int(r)/l.geo.PagesPerBlk], l.programmed(r):
			l.failLast = true
		case r != row:
			l.storePage(r, l.plane(r))
		case l.regOwned:
			// The register's own page becomes the stored page, uncopied;
			// the register keeps its reference and reads it from here on.
			l.regPage.Retain()
			l.installPage(r, l.regPage)
			l.regOwned = false
		default:
			l.storePage(r, l.reg)
		}
	}
	if cached && !fo.Stuck {
		l.busyUntil = now.Add(3 * sim.Microsecond) // register handoff only
	} else {
		l.busyUntil = l.arrayBusyUntil
	}
	l.stats.Programs += uint64(len(rows))
	return nil
}

// startErase erases the queued blocks plus the latched one. A bad block
// or an injected failure of the latched block raises FAIL and leaves the
// block unchanged; a block erased past its P/E limit goes bad and raises
// FAIL.
func (l *LUN) startErase(now sim.Time) error {
	row, err := l.latchedBlock("erase")
	if err != nil {
		return err
	}
	rows, fo, err := l.startArray(now, arrErase, &l.mp.eraseRows, row, l.params.TBERS, l.params.TBERS)
	if err != nil {
		return err
	}
	for _, r := range rows {
		block := int(r) / l.geo.PagesPerBlk
		switch {
		case fo.Fail && r == row, l.bad[block]:
			l.failLast = true
		default:
			l.eraseCount[block]++
			if l.eraseCount[block] > l.params.MaxPECycles {
				l.bad[block] = true
				l.failLast = true
			} else {
				l.eraseBlock(block)
			}
		}
	}
	l.busyUntil = l.arrayBusyUntil
	l.stats.Erases += uint64(len(rows))
	return nil
}

func (l *LUN) reset(now sim.Time) error {
	d := tResetIdle
	if !l.Ready(now) {
		d = TResetAbort // abort in progress
	}
	l.dec = decIdle
	l.out = outNone
	l.loadPending = false
	l.setLoad(nil, nil)
	l.cachePending = false
	l.suspended = false
	l.pslcNext = false
	l.failLast = false
	l.mp.clear()
	l.curOp = arrReset
	// SET FEATURES settings are volatile: RESET reverts them to their
	// power-on defaults (phase trim, timing mode).
	l.powerOnFeatures()
	l.busyUntil = now.Add(d)
	l.arrayBusyUntil = l.busyUntil
	if l.faults != nil && l.faults.OnReset(now) {
		// Persistent hardware failure: the LUN never comes back from
		// RESET. The controller's only remaining move is offlining it.
		l.busyUntil = stuckUntil
		l.arrayBusyUntil = stuckUntil
	}
	return nil
}

func (l *LUN) suspend(now sim.Time) error {
	if l.suspended {
		return l.protoErr("suspend while already suspended")
	}
	if l.ArrayReady(now) || (l.curOp != arrProgram && l.curOp != arrErase) {
		l.stats.ProtocolErrors++
		return fmt.Errorf("nand/%s: %w", l.params.Name, ErrNotSuspendable)
	}
	l.suspendRem = l.arrayBusyUntil.Sub(now)
	l.suspendedOp = l.curOp
	l.suspendedFail = l.failLast
	l.suspended = true
	l.busyUntil = now.Add(tSuspend)
	l.arrayBusyUntil = l.busyUntil
	l.curOp = arrNone
	l.stats.SuspendCount++
	return nil
}

func (l *LUN) resume(now sim.Time) error {
	if !l.suspended {
		return l.protoErr("resume with nothing suspended")
	}
	if !l.Ready(now) {
		return l.protoErr("resume while busy")
	}
	l.suspended = false
	l.curOp = l.suspendedOp
	// The status register reports the resumed operation again: reads
	// served while it was suspended do not bury its FAIL.
	l.failPrev = l.failLast
	l.failLast = l.suspendedFail
	l.arrayBusyUntil = now.Add(l.suspendRem)
	l.busyUntil = l.arrayBusyUntil
	l.stats.ResumeCnt++
	return nil
}

// readArrayInto fetches row's stored content (0xFF-filled if erased)
// into dst, a full-page buffer, with wear-dependent bit errors injected.
func (l *LUN) readArrayInto(row uint32, dst []byte) {
	if stored := l.page(row); stored != nil {
		copy(dst, stored.Bytes())
	} else {
		copy(dst, l.erasedFF)
	}
	l.injectErrors(row, dst)
}

// loadRow starts the pending load of row. When nothing (fault
// corruption, wear-injected bit errors) would change the bytes and
// toPlane is false, the load aliases the stored page, retained, or the
// erased template; otherwise row reads into its plane's register,
// corrupted beyond ECC if corrupt.
func (l *LUN) loadRow(row uint32, corrupt, toPlane bool) {
	l.loadPending = true
	if !toPlane && !corrupt && !l.wearActive(row) {
		if stored := l.page(row); stored != nil {
			stored.Retain()
			l.setLoad(stored.Bytes(), stored)
		} else {
			l.setLoad(l.erasedFF, nil)
		}
		return
	}
	reg := l.plane(row)
	l.readArrayInto(row, reg)
	if corrupt {
		corruptBeyondECC(row, reg)
	}
	l.setLoad(reg, nil)
}

// setLoad points the pending load at data, which aliases page when page
// is non-nil (the load then owns one reference to it), dropping the
// reference the previous load held.
func (l *LUN) setLoad(data []byte, page *pagebuf.Buf) {
	if l.loadPage != nil {
		l.loadPage.Release()
	}
	l.loadData, l.loadPage = data, page
}

// setReg points the page register at data, like setLoad for the load.
// The register owns nothing afterwards: data is an alias, read-only.
func (l *LUN) setReg(data []byte, page *pagebuf.Buf) {
	if l.regPage != nil {
		l.regPage.Release()
	}
	l.reg, l.regPage, l.regOwned = data, page, false
}

// wearActive reports whether injectErrors would flip any bits for row.
// The condition mirrors its early-outs, so clean reads can alias the
// stored page instead of copying it into a plane register.
func (l *LUN) wearActive(row uint32) bool {
	if l.params.RawBitErrorPer512B == 0 {
		return false
	}
	if l.eraseCount[int(row)/l.geo.PagesPerBlk] == 0 {
		return false
	}
	return l.retryMismatch(row) != 0 || l.params.ReadRetryLevels == 0
}

// ownReg makes the page register mutable. Unless it already owns a
// page, the register takes one from the LUN's arena, and with keep set
// the aliased bytes move into it first (the deferred copy the alias
// saved on the read-only path); a caller about to overwrite every byte
// passes keep unset.
func (l *LUN) ownReg(keep bool) {
	if l.regOwned {
		return
	}
	buf := l.pool.Get()
	if keep {
		copy(buf.Bytes(), l.reg)
	}
	l.setReg(buf.Bytes(), buf)
	l.regOwned = true
}

// page returns row's stored page, or nil when the row is erased.
func (l *LUN) page(row uint32) *pagebuf.Buf {
	if l.blocks == nil {
		return nil
	}
	ppb := uint32(l.geo.PagesPerBlk)
	if t, p := l.blocks[row/ppb], row%ppb; p < uint32(len(t)) {
		return t[p]
	}
	return nil
}

// storePage commits data, zero-padded to a full page, to the array in a
// fresh pooled buffer (see installPage).
func (l *LUN) storePage(row uint32, data []byte) {
	buf := l.pool.Get()
	// Pooled buffers arrive dirty: pad the tail past the data.
	page := buf.Bytes()
	clear(page[copy(page, data):])
	l.installPage(row, buf)
}

// installPage makes buf, a full page of this LUN's arena, row's stored
// page, taking over one reference to it; that marks the row programmed.
// The array drops its reference to the old page; an alias of it keeps
// its own.
func (l *LUN) installPage(row uint32, buf *pagebuf.Buf) {
	if l.blocks == nil {
		l.blocks = make([][]*pagebuf.Buf, l.geo.BlocksPerLUN)
	}
	ppb := uint32(l.geo.PagesPerBlk)
	b, p := row/ppb, int(row%ppb)
	t := l.blocks[b]
	if p >= len(t) {
		// Entries past len are nil: an erase clears what it truncates.
		if p >= cap(t) {
			nt := make([]*pagebuf.Buf, len(t), min(l.geo.PagesPerBlk, max(16, 2*cap(t), p+1)))
			copy(nt, t)
			t = nt
		}
		t = t[:p+1]
		l.blocks[b] = t
	} else if t[p] != nil {
		t[p].Release()
	}
	t[p] = buf
}

// programmed reports whether row holds a page: programmed or seeded
// since its block was last erased.
func (l *LUN) programmed(row uint32) bool {
	return l.page(row) != nil
}

// eraseBlock releases the array's references to block's pages and
// empties its table, keeping the table's storage for the next programs.
func (l *LUN) eraseBlock(block int) {
	if l.blocks == nil {
		return
	}
	t := l.blocks[block]
	for _, buf := range t {
		if buf != nil {
			buf.Release()
		}
	}
	clear(t)
	l.blocks[block] = t[:0]
}

// DataIn accepts a data burst from the controller (Data Writer µFSM) into
// the page register at the current column, or feature data for SET
// FEATURES.
func (l *LUN) DataIn(now sim.Time, data []byte) error {
	l.settle(now)
	if !l.Ready(now) {
		return l.protoErr("data in while busy")
	}
	if l.dec == decSetFeatData {
		if len(data) != 4 {
			return l.protoErr("SET FEATURES needs 4 data bytes, got %d", len(data))
		}
		var v [4]byte
		copy(v[:], data)
		l.features[onfi.FeatureAddr(l.addrBytes[0])] = v
		l.dec = decIdle
		return nil
	}
	if l.dec == decCopybackAddr && len(l.addrBytes) == 5 {
		// COPYBACK PROGRAM with data modification: data in after the
		// target address edits the copied page, and 85h and 10h follow
		// as in a program.
		l.dec = decProgramData
	}
	if l.dec != decProgramData {
		return l.protoErr("data in outside a program sequence")
	}
	if l.column+len(data) > l.geo.FullPageBytes() {
		return l.protoErr("data in overruns page register (col %d + %d bytes)", l.column, len(data))
	}
	l.ownReg(true)
	copy(l.reg[l.column:], data)
	l.column += len(data)
	return nil
}

// DataOut streams n bytes out of the LUN into a fresh slice. Hot paths
// use DataOutInto; this wrapper serves callers that want an owned copy.
func (l *LUN) DataOut(now sim.Time, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := l.DataOutInto(now, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DataOutDRAM streams n bytes out of the LUN into mem at addr — the
// Packetizer's store of a DataOutInto burst. A clean page read, where the
// register holds a page of the arena (a stored page it aliases, or its
// own), the burst starts at column 0 and the phase trim garbles nothing,
// lends that page to mem instead of copying it; every other burst copies
// through DataOutInto.
func (l *LUN) DataOutDRAM(now sim.Time, mem *dram.Buffer, addr, n int) error {
	l.selectOutput(now)
	if l.out == outPage && l.regPage != nil && l.column == 0 && n <= len(l.reg) &&
		l.Ready(now) && !l.loadPending && l.phaseSkew() == 0 {
		if err := mem.Lend(addr, l.regPage, n); err != nil {
			return err
		}
		// The page is shared now: a later write to the register copies it.
		l.regOwned = false
		l.column = n
		return nil
	}
	dst, err := mem.Window(addr, n)
	if err != nil {
		return err
	}
	return l.DataOutInto(now, dst)
}

// selectOutput settles the LUN at now and resolves which source a data
// burst streams.
func (l *LUN) selectOutput(now sim.Time) {
	l.settle(now)
	// A bare 00h latch after READ STATUS is the ONFI READ MODE command:
	// it re-selects the interrupted data output. The decoder cannot
	// distinguish it from READ.1 until it sees what follows; data output
	// with zero collected address cycles resolves it.
	if l.dec == decReadAddr && len(l.addrBytes) == 0 && l.out == outStatus && l.lastDataOut != outNone {
		l.out = l.lastDataOut
		l.dec = decIdle
	}
}

// DataOutInto streams len(dst) bytes out of the LUN (Data Reader µFSM)
// into dst: status, page/cache register contents from the current
// column, ID bytes, or feature data, depending on the preceding command.
// Every byte of dst is overwritten on success.
func (l *LUN) DataOutInto(now sim.Time, dst []byte) error {
	l.selectOutput(now)
	switch l.out {
	case outStatus:
		s := l.Status(now)
		for i := range dst {
			dst[i] = s
		}
		return nil
	case outPage:
		if !l.Ready(now) {
			return l.protoErr("page data out while busy")
		}
		if l.loadPending {
			return l.protoErr("page data out before load settled")
		}
		if err := l.copyRegisterInto(dst, l.reg); err != nil {
			return err
		}
		l.applyPhaseCorruption(dst)
		return nil
	case outCache:
		// Cache output is legal while the array is busy; RDY gates it.
		if now < l.busyUntil {
			return l.protoErr("cache data out while busy")
		}
		if err := l.copyRegisterInto(dst, l.cache()); err != nil {
			return err
		}
		l.applyPhaseCorruption(dst)
		return nil
	case outParamPage:
		if !l.Ready(now) {
			return l.protoErr("parameter page out while busy")
		}
		for i := range dst {
			idx := l.column + i
			// The package repeats parameter-page copies back to back.
			dst[i] = l.paramPage[idx%len(l.paramPage)]
		}
		l.column += len(dst)
		l.applyPhaseCorruption(dst)
		return nil
	case outID:
		for i := range dst {
			idx := l.idOffset + l.column + i
			if idx < len(l.params.IDBytes) {
				dst[i] = l.params.IDBytes[idx]
			} else {
				dst[i] = 0
			}
		}
		l.column += len(dst)
		return nil
	case outFeature:
		return l.copyRegisterInto(dst, l.cache())
	default:
		return l.protoErr("data out with no output source selected")
	}
}

// applyPhaseCorruption garbles a data burst when the DQS phase trim is
// too far from this instance's optimum: the strobe samples DQ at the
// wrong instant and bits smear. Deterministic so calibration converges.
func (l *LUN) applyPhaseCorruption(out []byte) {
	d := l.phaseSkew()
	if d == 0 {
		return
	}
	for i := range out {
		if i%2 == 0 {
			out[i] ^= 0xFF
		} else {
			out[i] ^= byte(d)
		}
	}
}

// phaseSkew is how far the DQS phase trim sits from this instance's
// optimum, or 0 when it is within tolerance and bursts arrive clean.
func (l *LUN) phaseSkew() int {
	d := int(l.features[onfi.FeatOutputPhase][0]) - l.phaseOptimal
	if d < 0 {
		d = -d
	}
	if d <= phaseTolerance {
		return 0
	}
	return d
}

func (l *LUN) copyRegisterInto(dst, reg []byte) error {
	if l.column+len(dst) > len(reg) {
		return l.protoErr("data out overruns register (col %d + %d bytes)", l.column, len(dst))
	}
	copy(dst, reg[l.column:])
	l.column += len(dst)
	return nil
}
