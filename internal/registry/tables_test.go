package registry

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTableCodecRoundTrip pins the persistent table layout: encode/decode is
// lossless (including negative zero and the smallest subnormal) and foreign
// bytes are rejected.
func TestTableCodecRoundTrip(t *testing.T) {
	tables := [][]float64{
		{},
		{0.5},
		{0, 1, 0.25, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0)},
	}
	for _, table := range tables {
		data := encodeTable(table)
		back, err := decodeTable(data)
		if err != nil {
			t.Fatalf("decodeTable(%v): %v", table, err)
		}
		if len(back) != len(table) {
			t.Fatalf("round trip changed length: %d != %d", len(back), len(table))
		}
		for i := range table {
			if math.Float64bits(back[i]) != math.Float64bits(table[i]) {
				t.Fatalf("entry %d: %v != %v", i, back[i], table[i])
			}
		}
	}
	data := encodeTable([]float64{0.5, 0.25})
	for _, corrupt := range [][]byte{
		data[:10],                               // truncated header
		data[:len(data)-1],                      // truncated payload
		append([]byte("NOTATABL"), data[8:]...), // wrong magic
		append(append([]byte{}, data...), 0x00), // trailing byte
	} {
		if _, err := decodeTable(corrupt); err == nil {
			t.Fatalf("decodeTable accepted corrupt input of %d bytes", len(corrupt))
		}
	}
	bad := append([]byte{}, data...)
	bad[8] = 99 // unsupported version
	if _, err := decodeTable(bad); err == nil {
		t.Fatal("decodeTable accepted an unsupported version")
	}
}

// TestDecodeTableRefusesImpossibleTables checks that a table file whose
// entries are not all probabilities, or that an earlier sampler fitted, is
// refused: a NaN would poison the pair sampler's cumulative weights.
func TestDecodeTableRefusesImpossibleTables(t *testing.T) {
	v1 := encodeTable([]float64{0.5, 0.25})
	binary.LittleEndian.PutUint32(v1[8:], 1)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"NaN", encodeTable([]float64{0.5, math.NaN()})},
		{"negative", encodeTable([]float64{-0.5, 1})},
		{"above one", encodeTable([]float64{1.5, 0.25})},
		{"+Inf", encodeTable([]float64{0, math.Inf(1)})},
		{"version 1", v1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if table, err := decodeTable(c.data); err == nil {
				t.Fatalf("decodeTable accepted %v", table)
			}
		})
	}
}

// TestAcceptanceTableSurvivesRestart proves the lazy reload path: a table
// fitted before a restart is served from its .table file by the reopened
// registry, with no re-fit and no eager load at Open.
func TestAcceptanceTableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Put(fixtureModel(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	table := []float64{0.125, 0.5, 0.875, 1}
	if !r.SetAcceptance(id, table) {
		t.Fatal("SetAcceptance failed")
	}
	// TableDir defaults to Dir: the table lives next to the model file.
	if _, err := os.Stat(filepath.Join(dir, id+".table")); err != nil {
		t.Fatalf("table file not persisted next to model: %v", err)
	}

	back, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.Acceptance(id)
	if !ok || !reflect.DeepEqual(got, table) {
		t.Fatalf("Acceptance after restart = %v, %v; want the persisted table", got, ok)
	}
	// Second call serves the now-cached table (same shared slice).
	again, ok := back.Acceptance(id)
	if !ok || &again[0] != &got[0] {
		t.Fatal("reloaded table was not cached in memory")
	}
}

// TestCorruptTableFileFallsBackToRefit checks that a damaged table file is
// treated as absent rather than served or fatal.
func TestCorruptTableFileFallsBackToRefit(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Put(fixtureModel(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".table"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Acceptance(id); ok {
		t.Fatal("corrupt table file was served")
	}
	// A fresh fit overwrites the damaged file.
	table := []float64{0.5}
	if !back.SetAcceptance(id, table) {
		t.Fatal("SetAcceptance failed")
	}
	if got, ok := back.loadTable(id); !ok || !reflect.DeepEqual(got, table) {
		t.Fatal("re-fitted table did not replace the corrupt file")
	}
}

// TestEvictRemovesTableFile checks the no-stale-table invariant extends to
// disk: evicting a model deletes its table file alongside the model file.
func TestEvictRemovesTableFile(t *testing.T) {
	dir := t.TempDir()
	tableDir := t.TempDir()
	r, err := Open(Options{Dir: dir, TableDir: tableDir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Put(fixtureModel(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !r.SetAcceptance(id, []float64{1}) {
		t.Fatal("SetAcceptance failed")
	}
	// An explicit TableDir overrides the next-to-models default.
	path := filepath.Join(tableDir, id+".table")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("table not written to TableDir: %v", err)
	}
	if !r.Evict(id) {
		t.Fatal("Evict failed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("evicted model's table file still on disk")
	}
}

// TestInMemoryTablesWithoutDirs checks that a registry with no persistence
// keeps the pre-existing in-memory table behaviour.
func TestInMemoryTablesWithoutDirs(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Put(fixtureModel(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acceptance(id); ok {
		t.Fatal("Acceptance hit before any SetAcceptance")
	}
	if !r.SetAcceptance(id, []float64{0.75}) {
		t.Fatal("SetAcceptance failed")
	}
	if got, ok := r.Acceptance(id); !ok || got[0] != 0.75 {
		t.Fatalf("Acceptance = %v, %v", got, ok)
	}
}
