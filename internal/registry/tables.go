package registry

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"agmdp/internal/core"
)

// Acceptance tables persist next to model files as <id>.table: a fixed
// little-endian layout of
//
//	magic "AGMDPTBL" (8 bytes) | version uint32 | reserved uint32 |
//	count uint64 | count × float64
//
// A table is deterministic for a given model and build: refinement is a pure
// function of the fitted parameters, and the model ID is a content address.
// But tables are fitted by sampling, so a build whose structural generators
// draw differently fits a different table for the same model. The version
// names the sampler a table was fitted with, and a file of another version
// reads as absent and gets re-fitted. Version 1 tables were fitted by the
// Chung–Lu seed's accept/reject loop; version 2 by its direct class-pair
// draw. Bump the version whenever the fit's draws change.
const (
	tableMagic      = "AGMDPTBL"
	tableVersion    = 2
	tableHeaderSize = 8 + 4 + 4 + 8
	// maxTableEntries caps decode allocation for corrupt counts: tables are
	// acceptance probabilities over attribute pairs, far below this.
	maxTableEntries = 1 << 28
)

// encodeTable renders one acceptance table in the persistent layout.
func encodeTable(table []float64) []byte {
	out := make([]byte, tableHeaderSize+8*len(table))
	copy(out, tableMagic)
	binary.LittleEndian.PutUint32(out[8:], tableVersion)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(table)))
	for i, v := range table {
		binary.LittleEndian.PutUint64(out[tableHeaderSize+8*i:], math.Float64bits(v))
	}
	return out
}

// decodeTable parses a persisted acceptance table, rejecting foreign,
// truncated or outdated files and any entry that is not a probability.
func decodeTable(data []byte) ([]float64, error) {
	if len(data) < tableHeaderSize {
		return nil, fmt.Errorf("registry: acceptance table is %d bytes, shorter than its %d-byte header", len(data), tableHeaderSize)
	}
	if string(data[:8]) != tableMagic {
		return nil, fmt.Errorf("registry: acceptance table has magic %q, want %q", data[:8], tableMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != tableVersion {
		return nil, fmt.Errorf("registry: acceptance table version %d is not supported (want %d)", v, tableVersion)
	}
	if r := binary.LittleEndian.Uint32(data[12:]); r != 0 {
		return nil, fmt.Errorf("registry: acceptance table reserved field is %d, want 0", r)
	}
	count := binary.LittleEndian.Uint64(data[16:])
	if count > maxTableEntries {
		return nil, fmt.Errorf("registry: acceptance table claims %d entries, above the %d cap", count, maxTableEntries)
	}
	if want := tableHeaderSize + 8*int(count); len(data) != want {
		return nil, fmt.Errorf("registry: acceptance table is %d bytes, want %d for %d entries", len(data), want, count)
	}
	table := make([]float64, count)
	for i := range table {
		table[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[tableHeaderSize+8*i:]))
	}
	if err := core.CheckAcceptanceTable(table); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return table, nil
}

// tablePath returns the on-disk location of one model's acceptance table.
func (r *Registry) tablePath(id string) string {
	return filepath.Join(r.tableDir, id+".table")
}

// loadTable reads and validates one model's persisted acceptance table,
// returning ok=false when absent or unreadable (the caller re-fits).
func (r *Registry) loadTable(id string) ([]float64, bool) {
	data, err := os.ReadFile(r.tablePath(id))
	if err != nil {
		return nil, false
	}
	table, err := decodeTable(data)
	if err != nil {
		return nil, false
	}
	return table, true
}
