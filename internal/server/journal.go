package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"unstencil/internal/fault"
)

// Fault-injection sites in the service layer (see internal/fault and
// DESIGN.md §8).
const (
	// SiteHandler fires at the top of every HTTP request, exercising the
	// recovery middleware.
	SiteHandler = "server.handler"
	// SiteJournal fires on every journal append, exercising the
	// degraded-durability path (journal failures are logged, never fatal).
	SiteJournal = "server.journal"
)

// JournalRecord is one line of the append-only job journal. An "accept"
// record carries the full spec so the job can be re-run after a crash; a
// "finish" record marks it terminal. A job that has an accept but no finish
// when the journal is reopened was lost in flight and is re-enqueued.
type JournalRecord struct {
	Op    string    `json:"op"` // "accept" or "finish"
	ID    string    `json:"id"`
	State JobState  `json:"state,omitempty"` // finish only
	Spec  *JobSpec  `json:"spec,omitempty"`  // accept only
	Time  time.Time `json:"time"`
}

// PendingJob is a journaled job that never reached a terminal state.
type PendingJob struct {
	ID   string
	Spec JobSpec
}

// Journal is the crash-recovery write-ahead log for accepted jobs, stored as
// JSON lines under the service state directory. Accept records are fsynced
// before Submit returns — the durability point of the WAL contract — while
// finish records ride on the OS page cache: losing a finish record merely
// re-runs an idempotent job after a crash. On open, the journal replays the
// existing file, returns the incomplete jobs, and compacts itself so the
// file does not grow without bound across restarts.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
}

// journalFile is the WAL's name inside the state directory.
const journalFile = "jobs.journal"

// OpenJournal opens (creating if needed) the journal in dir, returning the
// jobs that were accepted but never finished, oldest first. A corrupt tail —
// a partial line from a crash mid-write — is tolerated: replay stops at the
// first undecodable record and compaction discards it.
func OpenJournal(dir string) (*Journal, []PendingJob, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	pending, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := compactJournal(path, pending); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: journal open: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, pending, nil
}

// replayJournal reads the journal and returns accepts lacking a finish.
func replayJournal(path string) ([]PendingJob, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: journal replay: %w", err)
	}
	defer f.Close()

	// A finish cancels its id's accept wherever it lies: Submit queues a
	// job before journaling its accept, so a fast job's finish can land
	// first. Ids carry their manager's epoch and never repeat.
	var accepted []PendingJob
	finished := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var rec JournalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn tail from a crash mid-append; discard the rest
		}
		switch rec.Op {
		case "accept":
			if rec.Spec != nil && rec.ID != "" {
				accepted = append(accepted, PendingJob{ID: rec.ID, Spec: *rec.Spec})
			}
		case "finish":
			finished[rec.ID] = true
		}
	}
	pending := accepted[:0]
	for _, p := range accepted {
		if !finished[p.ID] {
			pending = append(pending, p)
		}
	}
	return pending, sc.Err()
}

// compactJournal rewrites the journal to contain only the pending accepts,
// via temp-file + rename so a crash mid-compaction leaves the old journal
// intact.
func compactJournal(path string, pending []PendingJob) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range pending {
		rec := JournalRecord{Op: "accept", ID: pending[i].ID, Spec: &pending[i].Spec, Time: time.Now().UTC()}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return fmt.Errorf("server: journal compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("server: journal compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("server: journal compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	return os.Rename(tmp, path)
}

// Accept journals a newly accepted job and fsyncs: once Accept returns nil,
// the job survives a process crash.
func (j *Journal) Accept(id string, spec JobSpec) error {
	return j.append(JournalRecord{Op: "accept", ID: id, Spec: &spec, Time: time.Now().UTC()}, true)
}

// Finish journals a job's terminal state. Not fsynced: a lost finish record
// only causes an idempotent re-run after a crash.
func (j *Journal) Finish(id string, state JobState) error {
	return j.append(JournalRecord{Op: "finish", ID: id, State: state, Time: time.Now().UTC()}, false)
}

func (j *Journal) append(rec JournalRecord, sync bool) error {
	if err := fault.Inject(SiteJournal); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("server: journal closed")
	}
	if err := json.NewEncoder(j.w).Encode(&rec); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if sync {
		return j.f.Sync()
	}
	return nil
}

// Close flushes and closes the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
