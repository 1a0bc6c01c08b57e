package jobs

// Finished-job persistence. Job results used to be in-memory only and died
// with the process; with Options.Dir configured, every job that reaches a
// terminal status is written as Dir/<id>.json (through atomicfile: staged,
// fsync'd, renamed into place) and reloaded on New, so a client that
// submitted a long batch or an overnight fit can still resolve
// GET /v1/jobs/{id} after a service restart.
// Only finished jobs persist — a running job's record would go stale the
// moment it was written; shutdown cancels running jobs, and the resulting
// cancelled records persist like any other terminal state.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"agmdp/internal/atomicfile"
)

// persistedJob is the on-disk form of one finished job.
type persistedJob struct {
	Info    Info           `json:"info"`
	Results []SampleResult `json:"results,omitempty"`
}

// seqFile records the high-water job sequence number, so IDs issued to jobs
// that never reached a terminal record (killed mid-run by a crash, not a
// graceful shutdown) are still never reissued after a restart.
const seqFile = "seq"

// persistSeqLocked durably records the current sequence high-water mark.
// Called with m.mu held on every ID allocation, which keeps the marks in
// order; the write is a few bytes. An ID is issued only once its mark is on
// disk, so a failure refuses the submission: after a crash, a lost mark
// would let a restarted manager reissue the ID to another client.
func (m *Manager) persistSeqLocked() error {
	if m.opts.Dir == "" {
		return nil
	}
	if err := atomicfile.Write(filepath.Join(m.opts.Dir, seqFile), []byte(strconv.Itoa(m.seq))); err != nil {
		return fmt.Errorf("jobs: recording the job ID mark: %w", err)
	}
	return nil
}

// removePersisted deletes a job's on-disk record, if any.
func (m *Manager) removePersisted(id string) {
	if m.opts.Dir != "" {
		os.Remove(filepath.Join(m.opts.Dir, id+".json"))
	}
}

// loadDir removes the temp files a crash left mid-write, then restores
// persisted finished jobs, ordered by creation time so
// listings and the retention bound match the original submission order.
// Files that cannot be read or decoded, records whose ID does not match
// their file name, and records in a non-terminal state are skipped (and
// reported via Warnings) rather than failing the open. The ID sequence
// resumes past the highest restored job number, so new submissions never
// collide with reloaded IDs.
func (m *Manager) loadDir() error {
	if err := os.MkdirAll(m.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("jobs: creating job directory: %w", err)
	}
	atomicfile.Sweep(m.opts.Dir)
	glob, err := filepath.Glob(filepath.Join(m.opts.Dir, "*.json"))
	if err != nil {
		return fmt.Errorf("jobs: scanning job directory: %w", err)
	}
	recs := make([]persistedJob, 0, len(glob))
	for _, path := range glob {
		data, err := os.ReadFile(path)
		if err != nil {
			m.addWarningLocked(fmt.Sprintf("%s: %v", path, err))
			continue
		}
		var rec persistedJob
		if err := json.Unmarshal(data, &rec); err != nil {
			m.addWarningLocked(fmt.Sprintf("%s: %v", path, err))
			continue
		}
		if want := strings.TrimSuffix(filepath.Base(path), ".json"); want != rec.Info.ID {
			m.addWarningLocked(fmt.Sprintf("%s: record is for job %q, not the name it was stored under", path, rec.Info.ID))
			continue
		}
		if !rec.Info.Status.Finished() {
			m.addWarningLocked(fmt.Sprintf("%s: non-terminal status %q", path, rec.Info.Status))
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Info.CreatedAt.Equal(recs[j].Info.CreatedAt) {
			return recs[i].Info.CreatedAt.Before(recs[j].Info.CreatedAt)
		}
		return recs[i].Info.ID < recs[j].Info.ID
	})
	for _, rec := range recs {
		// Reloaded jobs are terminal: their done channel is already closed
		// and cancellation is a no-op.
		done := make(chan struct{})
		close(done)
		j := &job{
			info:    rec.Info,
			results: rec.Results,
			cancel:  func() {},
			done:    done,
		}
		m.jobs[rec.Info.ID] = j
		m.order = append(m.order, rec.Info.ID)
		m.finished = append(m.finished, rec.Info.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.Info.ID, "job-")); err == nil && n > m.seq {
			m.seq = n
		}
	}
	// The sequence resumes past the high-water mark, not just the highest
	// restored record: an ID issued to a job that crashed mid-run has no
	// terminal record, and reusing it would hand a polling client some
	// other client's job.
	if data, err := os.ReadFile(filepath.Join(m.opts.Dir, seqFile)); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && n > m.seq {
			m.seq = n
		}
	}
	// The retention bound holds for reloaded state too, on disk as well as
	// in memory.
	for len(m.finished) > m.opts.Retain {
		m.removeLocked(m.finished[0])
	}
	return nil
}
