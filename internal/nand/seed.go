package nand

import (
	"fmt"

	"repro/internal/onfi"
)

// SeedPage stores data directly into the array, bypassing the ONFI
// protocol. Experiments use it to pre-initialize an SSD with data (the
// paper initializes its devices before running fio) without simulating
// hours of PROGRAM traffic. data shorter than a full page is zero-padded;
// longer data is an error.
func (l *LUN) SeedPage(row onfi.RowAddr, data []byte) error {
	if err := l.geo.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return err
	}
	if len(data) > l.geo.FullPageBytes() {
		return fmt.Errorf("nand: seed data of %d bytes exceeds page size %d", len(data), l.geo.FullPageBytes())
	}
	l.storePage(l.rowIndex(row), data)
	return nil
}

// PeekPage returns a copy of the array's stored content for row without
// timing, busy, or error-injection effects — the test-and-debug view.
// Erased pages read as all 0xFF.
func (l *LUN) PeekPage(row onfi.RowAddr) ([]byte, error) {
	if err := l.geo.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return nil, err
	}
	out := make([]byte, l.geo.FullPageBytes())
	if stored := l.page(l.rowIndex(row)); stored != nil {
		copy(out, stored.Bytes())
	} else {
		copy(out, l.erasedFF)
	}
	return out, nil
}

// Programmed reports whether row has been programmed since its block was
// last erased.
func (l *LUN) Programmed(row onfi.RowAddr) bool {
	return l.programmed(l.rowIndex(row))
}
