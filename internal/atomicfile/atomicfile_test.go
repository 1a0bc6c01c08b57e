package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var errFault = errors.New("injected fault")

// faultyFile is a real temp file whose step named fail returns errFault. A
// failing Write writes half its input first, so a torn temp file exists.
type faultyFile struct {
	*os.File
	fail string
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.fail == "write" {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errFault
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if f.fail == "sync" {
		return errFault
	}
	return f.File.Sync()
}

func (f faultyFile) Close() error {
	err := f.File.Close()
	if f.fail == "close" {
		return errFault
	}
	return err
}

// inject makes one step of the next writes fail, restoring the real calls
// when the test ends.
func inject(t *testing.T, step string) {
	t.Helper()
	realCreate, realRename, realSync := createTemp, rename, syncDir
	t.Cleanup(func() { createTemp, rename, syncDir = realCreate, realRename, realSync })
	switch step {
	case "create":
		createTemp = func(string) (file, error) { return nil, errFault }
	case "write", "sync", "close":
		createTemp = func(dir string) (file, error) {
			f, err := os.CreateTemp(dir, tempPattern)
			if err != nil {
				return nil, err
			}
			return faultyFile{File: f, fail: step}, nil
		}
	case "rename":
		rename = func(string, string) error { return errFault }
	case "syncdir":
		syncDir = func(string) error { return errFault }
	default:
		t.Fatalf("unknown step %q", step)
	}
}

// names lists the files in dir, sorted.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

func TestWriteReplacesContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"first", "second, longer than the first", ""} {
		if err := Write(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("content %q, want %q", got, content)
		}
		if got := names(t, dir); len(got) != 1 || got[0] != "state.json" {
			t.Fatalf("directory holds %v, want only state.json", got)
		}
	}
}

// TestWriteFaults fails each step of a replacement in turn. Every failure
// is returned, leaves the target with its old content (or, once the rename
// has happened, its new content) and never a partial file, and leaves no
// temp file behind.
func TestWriteFaults(t *testing.T) {
	old := []byte("old content")
	neu := bytes.Repeat([]byte("new content "), 1000)
	for _, tc := range []struct {
		step    string
		renamed bool // the failure comes after the rename
	}{
		{"create", false},
		{"write", false},
		{"sync", false},
		{"close", false},
		{"rename", false},
		{"syncdir", true},
	} {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "target")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			inject(t, tc.step)
			if err := Write(path, neu); !errors.Is(err, errFault) {
				t.Fatalf("Write returned %v, want the injected fault", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := old
			if tc.renamed {
				want = neu
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("target holds %d bytes, want the %d-byte %s content", len(got), len(want),
					map[bool]string{false: "old", true: "new"}[tc.renamed])
			}
			if got := names(t, dir); len(got) != 1 || got[0] != "target" {
				t.Fatalf("directory holds %v, want only the target", got)
			}
		})
	}
}

func TestStageCommitAndDiscard(t *testing.T) {
	dir := t.TempDir()
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "staged")
		return err
	}
	s, err := Stage(dir, write)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); len(got) != 1 {
		t.Fatalf("staging left %v, want one temp file", got)
	}
	s.Discard()
	s.Discard() // a second discard is a no-op
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("discard left %v", got)
	}
	var none *Staged
	none.Discard() // nil-safe

	s, err = Stage(dir, write)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "final")
	if err := s.Commit(path); err != nil {
		t.Fatal(err)
	}
	s.Discard() // after Commit: must not remove the committed file
	if got, err := os.ReadFile(path); err != nil || string(got) != "staged" {
		t.Fatalf("committed file = %q, %v", got, err)
	}
	if got := names(t, dir); len(got) != 1 || got[0] != "final" {
		t.Fatalf("directory holds %v, want only final", got)
	}

	// A write callback's error is returned as is, and nothing is left.
	if _, err := Stage(dir, func(io.Writer) error { return errFault }); !errors.Is(err, errFault) {
		t.Fatalf("Stage returned %v, want the callback's error", err)
	}
	if got := names(t, dir); len(got) != 1 {
		t.Fatalf("failed stage left %v", got)
	}
}

// TestSweepRemovesOnlyTempFiles: a file staged but never committed (a crash
// between Stage and Commit) is removed; committed and foreign files stay.
func TestSweepRemovesOnlyTempFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Stage(dir, func(w io.Writer) error { _, err := w.Write([]byte("torn")); return err }); err != nil {
		t.Fatal(err)
	}
	if err := Write(filepath.Join(dir, "kept.csr"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.tmp", "atomicfile-1.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	Sweep(dir)
	want := []string{"atomicfile-1.tmp", "kept.csr", "notes.tmp"}
	if got := names(t, dir); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("after Sweep the directory holds %v, want %v", got, want)
	}
	Sweep(filepath.Join(dir, "missing")) // nothing to sweep, nothing to fail
}
