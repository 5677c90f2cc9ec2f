// Package babol is the public face of the BABOL software-defined NAND
// flash controller library: a faithful, fully simulated reproduction of
// "BABOL: A Software-Defined NAND Flash Controller" (MICRO 2024).
//
// A System bundles everything needed to run flash operations against
// simulated ONFI packages: a deterministic virtual-time kernel, a
// channel bus with attached LUNs, a DRAM staging buffer, a firmware CPU
// model, and the BABOL controller itself. Operations — standard READ,
// PROGRAM, and ERASE, plus the advanced variants the paper motivates
// (pSLC, cache read, read retry, gang/RAIL reads, erase suspension) —
// are ordinary sequential Go functions written against Ctx, BABOL's
// software environment.
//
// Quick start:
//
//	sys, _ := babol.NewSystem(babol.SystemConfig{})
//	defer sys.Close()
//	sys.Chip(0).SeedPage(onfi.RowAddr{Block: 1}, []byte("hello"))
//	sys.Start(babol.OpRequest{
//	    Func: babol.ReadPage(onfi.Addr{Row: onfi.RowAddr{Block: 1}}, 0, 16),
//	    Chip: 0,
//	    Done: func(err error) { /* page now at DRAM address 0 */ },
//	})
//	sys.Run()
//
// The deeper layers remain importable for advanced use: internal/core
// (controller), internal/ops (operation library), internal/nand (package
// models), internal/ssd (full-drive assembly), internal/exp (the paper's
// experiments).
package babol

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Re-exported core types: these are the API operations are written
// against.
type (
	// Ctx is the software environment handed to an operation.
	Ctx = core.Ctx
	// OpFunc is a flash operation.
	OpFunc = core.OpFunc
	// OpRequest asks the controller to run one operation.
	OpRequest = core.OpRequest
	// Params describes a NAND package.
	Params = nand.Params
)

// Env selects the software environment the controller firmware runs on.
type Env uint8

const (
	// EnvRTOS is the FreeRTOS-style environment: lean scheduling,
	// usable on slow cores, more demanding to program against.
	EnvRTOS Env = iota
	// EnvCoro is the coroutine-style environment: programmer-friendly
	// but heavier, wanting a fast core.
	EnvCoro
)

func (e Env) String() string {
	if e == EnvRTOS {
		return "RTOS"
	}
	return "Coro"
}

// SystemConfig describes a single-channel BABOL deployment. The zero
// value gives a Hynix-preset channel (8 LUNs) at 200 MT/s driven by the
// RTOS environment on a 1 GHz core, with waveform capture enabled.
type SystemConfig struct {
	// Package selects the NAND preset; default Hynix (Table I).
	Package Params
	// PerChip, when set, customizes each chip instance (e.g. per-board
	// DQS phase variation for calibration demos). It receives the chip
	// index and the base Package and returns the instance's parameters.
	PerChip func(i int, base Params) Params
	// Ways is the LUN count on the channel, at most bus.MaxChips;
	// default: the preset wiring.
	Ways int
	// RateMT is the channel speed in megatransfers/s; default 200.
	RateMT int
	// Env selects the software environment; default EnvRTOS.
	Env Env
	// CPUMHz is the firmware clock; default 1000.
	CPUMHz int
	// DRAMBytes sizes the staging buffer; default 4 MiB.
	DRAMBytes int
	// DisableCapture leaves the channel's logic-analyzer probe off.
	DisableCapture bool
	// TaskQueue and TxnQueue override the schedulers (defaults: FIFO
	// task scheduling and issue-first transaction scheduling).
	TaskQueue sched.TaskQueue
	TxnQueue  sched.TxnQueue
}

// System is a ready-to-use BABOL channel: kernel, bus, packages, DRAM,
// CPU model, and controller.
type System struct {
	kernel *sim.Kernel
	ch     *bus.Channel
	mem    *dram.Buffer
	cpu    *cpumodel.CPU
	ctrl   *core.Controller
	pins   *obs.Buffer
}

// NewSystem assembles a System per cfg.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Package.Name == "" {
		cfg.Package = nand.Hynix()
	}
	if cfg.Ways == 0 {
		cfg.Ways = cfg.Package.LUNsPerChannel
	}
	if cfg.RateMT == 0 {
		cfg.RateMT = 200
	}
	if cfg.CPUMHz == 0 {
		cfg.CPUMHz = 1000
	}
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = 4 << 20
	}
	if cfg.Ways < 1 || cfg.Ways > bus.MaxChips {
		return nil, fmt.Errorf("babol: Ways %d outside [1, %d], the chips one channel can select", cfg.Ways, bus.MaxChips)
	}

	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: cfg.RateMT}, onfi.DefaultTiming())
	if err != nil {
		return nil, fmt.Errorf("babol: %w", err)
	}
	var pins *obs.Buffer
	if !cfg.DisableCapture {
		pins = &obs.Buffer{}
		ch.SetTracer(pins)
	}
	for i := 0; i < cfg.Ways; i++ {
		params := cfg.Package
		if cfg.PerChip != nil {
			params = cfg.PerChip(i, params)
		}
		lun, err := nand.NewLUN(params)
		if err != nil {
			return nil, fmt.Errorf("babol: %w", err)
		}
		ch.Attach(lun)
	}
	profile := cpumodel.RTOS()
	if cfg.Env == EnvCoro {
		profile = cpumodel.Coro()
	}
	cpu, err := cpumodel.New(k, cfg.CPUMHz, profile)
	if err != nil {
		return nil, fmt.Errorf("babol: %w", err)
	}
	mem := dram.New(cfg.DRAMBytes)
	ctrl, err := core.New(core.Config{
		Kernel: k, Channel: ch, DRAM: mem, CPU: cpu,
		TaskQueue: cfg.TaskQueue, TxnQueue: cfg.TxnQueue,
	})
	if err != nil {
		return nil, fmt.Errorf("babol: %w", err)
	}
	return &System{kernel: k, ch: ch, mem: mem, cpu: cpu, ctrl: ctrl, pins: pins}, nil
}

// Start submits an operation and returns its ID. Done fires in virtual
// time during Run.
func (s *System) Start(req OpRequest) uint64 { return s.ctrl.Start(req) }

// Run advances virtual time until all scheduled work drains.
func (s *System) Run() { s.kernel.Run() }

// RunFor advances virtual time by d.
func (s *System) RunFor(d sim.Duration) { s.kernel.RunFor(d) }

// Now reports the current virtual time.
func (s *System) Now() sim.Time { return s.kernel.Now() }

// Chip returns LUN i for seeding, peeking, and wear control.
func (s *System) Chip(i int) *nand.LUN { return s.ch.Chip(i) }

// Chips reports the channel width.
func (s *System) Chips() int { return s.ch.Chips() }

// DRAM returns the staging buffer operations DMA against.
func (s *System) DRAM() *dram.Buffer { return s.mem }

// Controller exposes the underlying controller for stats and advanced
// composition.
func (s *System) Controller() *core.Controller { return s.ctrl }

// Kernel exposes the simulation kernel for custom event scheduling.
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Waveform returns the buffer the channel's pin-level events go to, in
// emission order (nil if capture is disabled); internal/wave renders,
// exports and checks its Events.
func (s *System) Waveform() *obs.Buffer { return s.pins }

// Close aborts in-flight operations and releases resources.
func (s *System) Close() { s.ctrl.Close() }

// Package presets (Table I).
var (
	// Hynix returns the Hynix module preset: tR 100 µs, 8 LUNs/channel.
	Hynix = nand.Hynix
	// Toshiba returns the Toshiba module preset: tR 78 µs, 8 LUNs/channel.
	Toshiba = nand.Toshiba
	// Micron returns the Micron module preset: tR 53 µs, 2 LUNs/channel.
	Micron = nand.Micron
)

// The operation library (paper Figure 8 and §IV-§V extensions).
var (
	// ReadPage is the READ with Column Address Change (Algorithm 2).
	ReadPage = ops.ReadPage
	// ReadPageSLC is the pseudo-SLC READ (Algorithm 3).
	ReadPageSLC = ops.ReadPageSLC
	// ReadPageFixedWait is the naive fixed-tR READ variant.
	ReadPageFixedWait = ops.ReadPageFixedWait
	// ProgramPage is the PAGE PROGRAM operation.
	ProgramPage = ops.ProgramPage
	// ProgramPageSLC is the pSLC PROGRAM variation.
	ProgramPageSLC = ops.ProgramPageSLC
	// EraseBlock is the BLOCK ERASE operation.
	EraseBlock = ops.EraseBlock
	// ReadID is the READ ID operation.
	ReadID = ops.ReadID
	// Reset is the RESET operation.
	Reset = ops.Reset
	// SetFeature and GetFeature drive the SET/GET FEATURES registers.
	SetFeature = ops.SetFeature
	GetFeature = ops.GetFeature
	// CacheReadPages streams consecutive pages with READ CACHE.
	CacheReadPages = ops.CacheReadPages
	// ReadWithRetry walks the vendor read-retry voltage table.
	ReadWithRetry = ops.ReadWithRetry
	// GangRead and GangProgram are the RAIL-style replicated operations.
	GangRead    = ops.GangRead
	GangProgram = ops.GangProgram
	// EraseWithSuspend services an urgent read inside a block erase.
	EraseWithSuspend = ops.EraseWithSuspend
	// CopybackPage moves a page inside one LUN without channel traffic.
	CopybackPage = ops.CopybackPage
	// ReadParameterPage fetches and validates the ONFI self-description.
	ReadParameterPage = ops.ReadParameterPage
	// CalibratePhase trims the per-package DQS sampling phase (§IV-C).
	CalibratePhase = ops.CalibratePhase
	// InterruptibleErase erases while serving urgent reads mid-erase.
	InterruptibleErase = ops.InterruptibleErase
	// MPReadPages, MPProgramPages, and MPEraseBlocks run one page/block
	// per plane concurrently, sharing a single array time.
	MPReadPages    = ops.MPReadPages
	MPProgramPages = ops.MPProgramPages
	MPEraseBlocks  = ops.MPEraseBlocks
	// BootSequence initializes a freshly attached package.
	BootSequence = ops.BootSequence
	// ReadStatus issues one READ STATUS from inside an operation.
	ReadStatus = ops.ReadStatus
)
