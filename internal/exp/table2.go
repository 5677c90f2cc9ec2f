package exp

import (
	"fmt"
	"path/filepath"

	"repro/internal/loc"
)

// Table2Row is one operation's line counts across implementations.
type Table2Row struct {
	Operation  string
	HWBased    int // our hardware baseline (FSM states + shared machinery share)
	Babol      int // our BABOL software operation
	PaperSync  int // paper's synchronous HW-based [50]
	PaperAsync int // paper's asynchronous HW-based [25]
	PaperBabol int // paper's BABOL
}

// Table2 reproduces Table II (lines of code per operation). Our numbers
// are counted mechanically from this repository with go/parser: the
// hardware column counts each operation's FSM case clauses in
// internal/hwctrl plus an equal share of the FSM's shared machinery; the
// BABOL column counts the operation functions in internal/ops including
// the helpers they are built from. The paper's Verilog/C++ counts are
// reported alongside — the claim under test is the *ratio*, an order of
// magnitude less code in BABOL.
func Table2() ([]Table2Row, error) {
	root, err := loc.FindRepoRoot()
	if err != nil {
		return nil, err
	}
	opsFile, err := loc.Parse(filepath.Join(root, "internal/ops/ops.go"))
	if err != nil {
		return nil, err
	}
	fsmFile, err := loc.Parse(filepath.Join(root, "internal/hwctrl/fsm.go"))
	if err != nil {
		return nil, err
	}

	// Shared FSM machinery every hardware operation needs a copy of the
	// control for: request loading, completion, R/B waiting.
	shared, err := fsmFile.FuncsLines("loadNext", "fail", "complete", "waitRB", "rbReady")
	if err != nil {
		return nil, err
	}
	share := shared / 3

	// The operation bodies (Run…), not their one-line OpFunc factories:
	// the factories only bind arguments into a closure.
	babolRead, err := opsFile.FuncsLines("RunReadPage", "pollReady", "ReadStatus", "appendReadLatches", "appendChangeColumnLatches")
	if err != nil {
		return nil, err
	}
	babolProg, err := opsFile.FuncsLines("RunProgramPage", "programPage")
	if err != nil {
		return nil, err
	}
	babolErase, err := opsFile.FuncsLines("RunEraseBlock")
	if err != nil {
		return nil, err
	}

	hwRead, err := fsmFile.CaseLines("busStep", "stRead")
	if err != nil {
		return nil, err
	}
	hwProg, err := fsmFile.CaseLines("busStep", "stProg")
	if err != nil {
		return nil, err
	}
	hwErase, err := fsmFile.CaseLines("busStep", "stErase")
	if err != nil {
		return nil, err
	}

	return []Table2Row{
		{Operation: "READ", HWBased: hwRead + share, Babol: babolRead,
			PaperSync: 420, PaperAsync: 454, PaperBabol: 58},
		{Operation: "PROGRAM", HWBased: hwProg + share, Babol: babolProg,
			PaperSync: 420, PaperAsync: 260, PaperBabol: 44},
		{Operation: "ERASE", HWBased: hwErase + share, Babol: babolErase,
			PaperSync: 327, PaperAsync: 203, PaperBabol: 27},
	}, nil
}

// RenderTable2 formats Table II with the paper's reference columns.
func RenderTable2() (string, error) {
	rows, err := Table2()
	if err != nil {
		return "", err
	}
	out := []string{fmt.Sprintf("%-9s %12s %12s | %10s %11s %11s",
		"", "HW (ours)", "BABOL(ours)", "Sync[50]", "Async[25]", "BABOL(ppr)")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-9s %12d %12d | %10d %11d %11d",
			r.Operation, r.HWBased, r.Babol, r.PaperSync, r.PaperAsync, r.PaperBabol))
	}
	return table("Table II: Lines of code per operation (measured vs paper)", out), nil
}
