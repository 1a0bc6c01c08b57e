package tenant

// The append-only JSONL log behind both privacy-state files: the ε-ledger
// (ledger.jsonl) and the ownership log (owners.jsonl). Each record is one
// line, acknowledged only once the line and its newline are synced.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"agmdp/internal/atomicfile"
)

// errLogClosed refuses appends to a persistent log whose handle is gone.
var errLogClosed = errors.New("log closed")

// appendLog is an open append-only JSONL file. A nil *appendLog is an
// in-memory log whose appends succeed without writing anything.
type appendLog struct {
	f *os.File // nil once closed
}

// openLog replays the append-only JSONL log at path through apply, one
// complete non-blank line at a time, then opens it for appending, creating
// it if needed. The first line apply rejects fails the open with an error
// naming path:line, before the file is opened or changed: privacy state that
// cannot be read back in full must not be served or appended to. A record is
// acknowledged only once its line and newline are synced, so a final line
// without a newline is a torn append that was never admitted, even if it
// parses: it is not replayed but reported in torn, and the file is cut back
// to the last newline (and synced) so the next append starts a line of its
// own instead of being glued onto the torn one. A file the open creates has
// its directory fsync'd, so its name cannot be lost after its first synced
// append.
func openLog(path string, apply func(line []byte) error) (log *appendLog, torn string, err error) {
	data, err := os.ReadFile(path)
	created := os.IsNotExist(err)
	if err != nil && !created {
		return nil, "", err
	}
	end := bytes.LastIndexByte(data, '\n') + 1
	for i, line := range bytes.Split(data[:end], []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := apply(line); err != nil {
			return nil, "", fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if created {
		if err := atomicfile.SyncDir(filepath.Dir(path)); err != nil {
			return nil, "", err
		}
	}
	if end < len(data) {
		torn = fmt.Sprintf("%s:%d: torn final line (no newline) dropped: it was never acknowledged",
			path, bytes.Count(data[:end], []byte{'\n'})+1)
		if err := f.Truncate(int64(end)); err != nil {
			return nil, "", err
		}
		if err := f.Sync(); err != nil {
			return nil, "", err
		}
	}
	return &appendLog{f: f}, torn, nil
}

// decodeEntry parses one log line into v. Unknown fields are refused: the
// service writes none, so one means a damaged key, and decoding around it
// would silently drop that field (an ε, or a revoke flag).
func decodeEntry(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("data after the entry")
	}
	return nil
}

// append writes v as one line and syncs it. Callers hold the owning store's
// mutex. A persistent log whose handle is gone (Close raced an append)
// refuses rather than silently dropping durability.
func (l *appendLog) append(v any) error {
	if l == nil {
		return nil
	}
	if l.f == nil {
		return errLogClosed
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// close releases the append handle; later appends to a persistent log fail.
// Closing twice, or an in-memory log, is a no-op.
func (l *appendLog) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
