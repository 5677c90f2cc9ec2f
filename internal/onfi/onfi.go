// Package onfi models the parts of the Open NAND Flash Interface (ONFI)
// specification that a channel controller needs: operation codes, status
// register semantics, latch kinds, data-interface modes with their transfer
// rates, and the timing parameters that govern waveform construction.
//
// The package is pure data and codecs; waveform emission lives in
// internal/ufsm and package behaviour in internal/nand.
package onfi

import (
	"fmt"
	"strings"
)

// Cmd is an ONFI operation code (one command-latch byte).
type Cmd byte

// Standard and common vendor command codes. The two-byte commands (e.g.
// READ is 0x00…0x30) are listed as their constituent latches.
const (
	CmdRead1            Cmd = 0x00 // READ: first command latch
	CmdRead2            Cmd = 0x30 // READ: confirm latch (starts tR)
	CmdCacheRead        Cmd = 0x31 // READ CACHE SEQUENTIAL confirm
	CmdCacheReadEnd     Cmd = 0x3F // READ CACHE END
	CmdChangeReadCol1   Cmd = 0x05 // CHANGE READ COLUMN: first latch
	CmdChangeReadCol2   Cmd = 0xE0 // CHANGE READ COLUMN: confirm
	CmdCopybackRead     Cmd = 0x35 // READ FOR COPYBACK: confirm latch
	CmdCopybackProgram  Cmd = 0x85 // COPYBACK PROGRAM: first latch (ctx-dependent)
	CmdMPReadQueue      Cmd = 0x32 // MULTI-PLANE READ: queue this plane, more follow
	CmdMPProgramQueue   Cmd = 0x11 // MULTI-PLANE PROGRAM: queue this plane, more follow
	CmdChangeReadColE1  Cmd = 0x06 // CHANGE READ COLUMN ENHANCED: first latch (selects plane)
	CmdProgram1         Cmd = 0x80 // PAGE PROGRAM: first latch
	CmdProgram2         Cmd = 0x10 // PAGE PROGRAM: confirm (starts tPROG)
	CmdCacheProgram2    Cmd = 0x15 // CACHE PROGRAM confirm
	CmdChangeWriteCol   Cmd = 0x85 // CHANGE WRITE COLUMN
	CmdErase1           Cmd = 0x60 // BLOCK ERASE: first latch
	CmdErase2           Cmd = 0xD0 // BLOCK ERASE: confirm (starts tBERS)
	CmdReadStatus       Cmd = 0x70 // READ STATUS
	CmdReadStatusEnh    Cmd = 0x78 // READ STATUS ENHANCED (per-LUN)
	CmdReadID           Cmd = 0x90 // READ ID
	CmdReadParameterPg  Cmd = 0xEC // READ PARAMETER PAGE
	CmdSetFeatures      Cmd = 0xEF // SET FEATURES
	CmdGetFeatures      Cmd = 0xEE // GET FEATURES
	CmdReset            Cmd = 0xFF // RESET
	CmdSynchronousReset Cmd = 0xFC // SYNCHRONOUS RESET
	// Vendor-specific codes used by advanced operations in the literature.
	CmdPSLCEnable   Cmd = 0xA2 // enter pseudo-SLC mode for the next op
	CmdSuspend      Cmd = 0x61 // suspend ongoing PROGRAM/ERASE
	CmdResume       Cmd = 0xD2 // resume a suspended PROGRAM/ERASE
	CmdReadRetryPre Cmd = 0x26 // vendor read-retry preamble
)

// String names the command for traces and error messages.
func (c Cmd) String() string {
	if s, ok := cmdNames[c]; ok {
		return s
	}
	return fmt.Sprintf("CMD(0x%02X)", byte(c))
}

var cmdNames = map[Cmd]string{
	CmdRead1:            "READ.1",
	CmdRead2:            "READ.2",
	CmdCacheRead:        "CACHE-READ",
	CmdCacheReadEnd:     "CACHE-READ-END",
	CmdChangeReadCol1:   "CHG-RD-COL.1",
	CmdChangeReadCol2:   "CHG-RD-COL.2",
	CmdCopybackRead:     "COPYBACK-READ",
	CmdMPReadQueue:      "MP-READ-QUEUE",
	CmdMPProgramQueue:   "MP-PGM-QUEUE",
	CmdChangeReadColE1:  "CHG-RD-COL-E.1",
	CmdProgram1:         "PROGRAM.1",
	CmdProgram2:         "PROGRAM.2",
	CmdCacheProgram2:    "CACHE-PROGRAM.2",
	CmdChangeWriteCol:   "CHG-WR-COL",
	CmdErase1:           "ERASE.1",
	CmdErase2:           "ERASE.2",
	CmdReadStatus:       "READ-STATUS",
	CmdReadStatusEnh:    "READ-STATUS-ENH",
	CmdReadID:           "READ-ID",
	CmdReadParameterPg:  "READ-PARAM-PAGE",
	CmdSetFeatures:      "SET-FEATURES",
	CmdGetFeatures:      "GET-FEATURES",
	CmdReset:            "RESET",
	CmdSynchronousReset: "SYNC-RESET",
	CmdPSLCEnable:       "PSLC-ENABLE",
	CmdSuspend:          "SUSPEND",
	CmdResume:           "RESUME",
	CmdReadRetryPre:     "READ-RETRY-PRE",
}

// Status register bits as returned by READ STATUS (ONFI 5.1 §5.5).
const (
	StatusFail  byte = 1 << 0 // FAIL: last operation failed
	StatusFailC byte = 1 << 1 // FAILC: previous (cached) operation failed
	StatusCSP   byte = 1 << 2 // command-specific
	StatusVSP   byte = 1 << 3 // vendor-specific
	StatusARDY  byte = 1 << 5 // array ready (cache ops)
	StatusRDY   byte = 1 << 6 // ready: LUN can accept a new command
	StatusWP    byte = 1 << 7 // write protect (1 = not protected)
)

// StatusReady is the value an idle, healthy LUN reports: RDY|ARDY|WP.
// The paper's Algorithm 2 polls for 0x40 (RDY); comparisons should mask.
const StatusReady = StatusRDY | StatusARDY | StatusWP

// LatchKind distinguishes what a latch cycle on the command/address bus
// carries.
type LatchKind uint8

const (
	LatchCmd  LatchKind = iota // command latch (CLE high)
	LatchAddr                  // address latch (ALE high)
)

func (k LatchKind) String() string {
	if k == LatchCmd {
		return "CMD"
	}
	return "ADDR"
}

// Latch is one command or address cycle: the kind plus the byte driven on
// DQ[7:0].
type Latch struct {
	Kind  LatchKind
	Value byte
}

// CmdLatch builds a command latch.
func CmdLatch(c Cmd) Latch { return Latch{Kind: LatchCmd, Value: byte(c)} }

// AddrLatch builds an address latch.
func AddrLatch(b byte) Latch { return Latch{Kind: LatchAddr, Value: b} }

// SummarizeLatches labels a latch burst for traces, naming each command
// and collapsing each run of address cycles, e.g. "READ.1 ADDR×5 READ.2".
func SummarizeLatches(latches []Latch) string {
	var parts []string
	run := 0
	flush := func() {
		if run == 1 {
			parts = append(parts, "ADDR")
		} else if run > 1 {
			parts = append(parts, fmt.Sprintf("ADDR×%d", run))
		}
		run = 0
	}
	for _, l := range latches {
		if l.Kind == LatchAddr {
			run++
			continue
		}
		flush()
		parts = append(parts, Cmd(l.Value).String())
	}
	flush()
	return strings.Join(parts, " ")
}

// FeatureAddr identifies a SET/GET FEATURES target register.
type FeatureAddr byte

// Feature addresses used by BABOL's operation library.
const (
	FeatTimingMode    FeatureAddr = 0x01 // ONFI timing mode / data interface
	FeatDriveStrength FeatureAddr = 0x10
	FeatReadRetry     FeatureAddr = 0x89 // vendor: read-retry voltage level
	FeatPSLC          FeatureAddr = 0x91 // vendor: pseudo-SLC mode latch
	FeatOutputPhase   FeatureAddr = 0x92 // vendor: DQS output phase trim
)
