package graphstore

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sync"

	"agmdp/internal/graph"
)

var errSnapClosed = errors.New("graphstore: snapshot closed")

// snap is the handle to one graph's canonical snapshot bytes. It comes in
// three flavours: memory-mapped (path + mapped data), file-backed (path
// only; every read reopens the file), and heap-resident (data only, used by
// stores without a directory). Readers of the mapped region take a refcount
// so that close — which must munmap — never unmaps bytes an in-flight
// download or decode is still touching.
type snap struct {
	path string // snapshot file; "" for heap-resident snapshots
	size int64

	mu     sync.Mutex
	data   []byte // mapped region or heap bytes; nil for file-backed
	mapped bool   // data needs munmap once closed and unreferenced
	refs   int
	closed bool
}

// acquire pins the in-memory bytes for reading. It returns (nil, nil) when
// the snapshot is file-backed — callers fall back to the file path — and an
// error when the snapshot is closed. Every (data, nil) return must be paired
// with release.
func (sn *snap) acquire() ([]byte, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.closed {
		return nil, errSnapClosed
	}
	if sn.data == nil {
		return nil, nil
	}
	sn.refs++
	return sn.data, nil
}

// release undoes one acquire, unmapping a closed region once the last
// reader leaves.
func (sn *snap) release() {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.refs--
	if sn.closed && sn.refs == 0 {
		if sn.mapped {
			munmap(sn.data)
			sn.mapped = false
		}
		sn.data = nil
	}
}

// close retires the snapshot. The memory map is released immediately when
// idle, otherwise by the last release.
func (sn *snap) close() {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.closed {
		return
	}
	sn.closed = true
	if sn.refs == 0 {
		if sn.mapped {
			munmap(sn.data)
			sn.mapped = false
		}
		sn.data = nil
	}
}

// decode materializes the CSR graph from the snapshot: a direct slice decode
// over the mapped or heap bytes, or over a whole-file read for file-backed
// snapshots. The result shares no memory with the snapshot.
func (sn *snap) decode() (*graph.Graph, error) {
	data, err := sn.acquire()
	if err != nil {
		return nil, err
	}
	if data != nil {
		defer sn.release()
		return graph.DecodeBinary(data)
	}
	data, err = os.ReadFile(sn.path)
	if err != nil {
		return nil, err
	}
	return graph.DecodeBinary(data)
}

// writeTo streams the snapshot bytes to w without decoding: one Write from
// the mapped or heap bytes, or an io.Copy through a chunked file read.
func (sn *snap) writeTo(w io.Writer) error {
	data, err := sn.acquire()
	if err != nil {
		return err
	}
	if data != nil {
		defer sn.release()
		_, err := w.Write(data)
		return err
	}
	f, err := os.Open(sn.path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, bufio.NewReaderSize(f, 1<<16))
	return err
}

// readAll returns a fresh heap copy of the snapshot bytes.
func (sn *snap) readAll() ([]byte, error) {
	data, err := sn.acquire()
	if err != nil {
		return nil, err
	}
	if data != nil {
		defer sn.release()
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	}
	return os.ReadFile(sn.path)
}
