// Package atomicfile is the one way the service replaces a file on disk:
// stage the new content in a temp file in the target's directory, fsync and
// close it, rename it onto the target and fsync the directory. A crash at any
// point leaves the target with either its old or its new content, never a
// partial file, plus at most a temp file, which Sweep removes when the owning
// store next opens. An error leaves no temp file and the target unchanged,
// except that a failed directory fsync comes after the rename: the target
// then holds the new content, which may not survive a crash.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// tempPattern names every staged temp file (the star becomes a random
// string). No store loads a name of this shape; Sweep removes exactly these.
const tempPattern = ".atomicfile-*.tmp"

// file is the part of *os.File a stage uses.
type file interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// The file-system calls of Stage and Commit, variables so that the fault
// test can fail each step in turn.
var (
	createTemp = func(dir string) (file, error) { return os.CreateTemp(dir, tempPattern) }
	rename     = os.Rename
	syncDir    = SyncDir
)

// Write replaces path with data durably: Stage in path's directory, then
// Commit.
func Write(path string, data []byte) error {
	s, err := Stage(filepath.Dir(path), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	return s.Commit(path)
}

// Staged is new content written and fsync'd to a temp file, waiting to
// replace its target.
type Staged struct {
	name string // the temp file; "" once committed or discarded
}

// Stage creates a temp file in dir, fills it through write, fsyncs and
// closes it. On error the temp file is removed. Callers stage before taking
// their own locks and hold them only for Commit.
func Stage(dir string, write func(io.Writer) error) (*Staged, error) {
	f, err := createTemp(dir)
	if err != nil {
		return nil, err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	return &Staged{name: f.Name()}, nil
}

// Commit renames the staged file onto path, which must lie in the directory
// it was staged in, and fsyncs that directory. If the rename fails the temp
// file is removed and path keeps its old content.
func (s *Staged) Commit(path string) error {
	name := s.name
	s.name = ""
	if err := rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Discard removes the staged file without committing it. It does nothing on
// a nil Staged, so a store that stages only when it persists can discard
// unconditionally, and nothing after Commit.
func (s *Staged) Discard() {
	if s != nil && s.name != "" {
		os.Remove(s.name)
		s.name = ""
	}
}

// Sweep removes the temp files that a crash between Stage and Commit left
// in dir. Each store calls it on its own directory when it opens, before it
// serves. It is best effort: a temp file it cannot remove stays harmless,
// because no store loads its name.
func Sweep(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if ok, _ := filepath.Match(tempPattern, e.Name()); ok {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
