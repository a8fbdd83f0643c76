// Write-ahead job journal: the coordinator's only durable state.
//
// Every queue transition is appended as a crc32c-framed record before
// the queue moves on, fsync-batched so the hot path pays one group
// commit instead of a sync per record. Queue.Checkpoint compacts the
// journal in place: it writes [snapshot frame][records appended since
// the snapshot was taken] to a temp file, rotates the live journal to
// <path>.prev and renames the temp file into place. On startup the
// journal is replayed by Queue.Recover: the last snapshot first, then
// the records after it.
//
// Frame layout, little-endian:
//
//	[4B payload length][4B crc32c(payload)][payload JSON]
//
// A torn tail — short header, impossible length, checksum mismatch,
// unparsable JSON — marks the end of the readable log: everything
// before it is kept, the tail is dropped and the file truncated at the
// last good frame. Torn tails are expected under kill -9 and are never
// fatal. The one exception is the head of a compaction output: while
// <path>.prev exists, the live file was written by a compaction that
// fsynced it before the rename, so a head frame that does not decode
// means the file is corrupt, not torn. OpenJournal then leaves it
// untouched and salvages from <path>.prev.
//
// Replay is idempotent (replaying a record twice equals once), which is
// what lets the records after a snapshot overlap the state it holds.
package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Journal record types, one per queue transition.
const (
	recSubmit   = "submit"   // job accepted; carries the full job snapshot
	recState    = "state"    // started / requeued-for-retry
	recProgress = "progress" // throttled progress watermark
	recFinish   = "finish"   // terminal transition; carries the result
	recLease    = "lease"    // lease pool grant/complete/expiry (SSE ring only)
	recGaGen    = "ga_gen"   // ga_search generation checkpoint; carries per-individual outcomes
	recSnapshot = "snapshot" // whole queue state; heads every compacted journal
)

// journalSeqSlack is added to every job's recovered SSE sequence
// number. Async records (progress, lease) are fsync-batched, so a crash
// can lose a few events that subscribers already saw live; restarting
// numbering past a slack gap guarantees no sequence number is ever
// reused for a different event. Gaps are harmless to subscribers —
// Last-Event-ID only has to be monotonic.
const journalSeqSlack = 256

// journalFlushInterval is the group-commit cadence for async records.
const journalFlushInterval = 25 * time.Millisecond

// compactFloor is the least growth since the last snapshot that makes
// a terminal transition compact the journal. Above the floor the
// threshold is the snapshot's own size, so every compaction rewrites at
// most as many bytes as were appended since the previous one: total
// compaction I/O stays linear in the bytes journaled.
const compactFloor = 1 << 20

// ErrJournalCorrupt reports a journal that exists but cannot be
// trusted: the live file's head frame does not decode and the previous
// generation (<path>.prev) yields no records. Both files are left
// untouched for post-mortem.
var ErrJournalCorrupt = errors.New("engine: journal corrupt")

var (
	ctrJournalErrors      = obs.Default().Counter("queue.journal_errors")
	ctrJournalTorn        = obs.Default().Counter("queue.journal_torn_tail")
	ctrCheckpointSalvaged = obs.Default().Counter("queue.checkpoint_salvaged")
	famJournalRecords     = obs.Default().CounterFamily("sbst_journal_records_total", "Write-ahead journal records appended, by type.", "type")
	ctrJournalTruncate    = obs.Default().CounterFamily("sbst_journal_truncations_total", "Journal compactions: rewrites of the journal as a snapshot frame plus the records appended after it.").Counter()
	gaugeJournalBytes     = obs.Default().GaugeFamily("sbst_journal_bytes", "Current journal file size including unflushed buffer.").Gauge()
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// JournalRecord is one framed journal entry. The T field selects which
// of the optional fields are meaningful; unknown fields from a newer
// writer are ignored on replay.
type JournalRecord struct {
	T     string `json:"t"`
	JobID string `json:"job,omitempty"`
	// Seq is the SSE sequence number the broker assigned to the event
	// this record mirrors; replay seeds the event ring with it so
	// Last-Event-ID resume works across a restart.
	Seq int64 `json:"seq,omitempty"`
	// At is the transition time (submit → Created, state running →
	// Started, finish → Finished).
	At time.Time `json:"at,omitempty"`
	// NextID is the queue's ID counter after a submit minted its job ID,
	// or at the moment a snapshot was taken.
	NextID int `json:"next_id,omitempty"`
	// Job is the full snapshot of a freshly submitted job.
	Job      *Job            `json:"snapshot,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	State    JobState        `json:"state,omitempty"`
	Progress *Progress       `json:"progress,omitempty"`
	Result   *JobResult      `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Lease    *api.LeaseEvent `json:"lease,omitempty"`
	// Ga is a ga_search job's completed-generation record (recGaGen):
	// the per-individual outcomes the GA replays to resume a search
	// bit-identically after a crash.
	Ga *GaGenRecord `json:"ga,omitempty"`

	// Jobs, EventSeqs and GaGens make up a snapshot record: every job in
	// submission order, the last SSE sequence number published per job,
	// and each non-terminal ga_search job's completed generations.
	Jobs      []Job                    `json:"jobs,omitempty"`
	EventSeqs map[string]int64         `json:"event_seqs,omitempty"`
	GaGens    map[string][]GaGenRecord `json:"ga_gens,omitempty"`
}

// Journal is an append-only crc32c-framed log with group-commit fsync
// batching and in-place compaction. Safe for concurrent use; nil-safe
// on every method so wiring stays optional.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// cur is the file f was opened as: path, or prevPath(path) while
	// appends go to the salvaged previous generation because the live
	// file is corrupt. Compaction rotates cur, never a corrupt file,
	// into the .prev slot.
	cur string
	// snapBytes is the size of the snapshot frame heading the file (0
	// before the first compaction).
	snapBytes int64
	// buf holds encoded frames not yet written to the file; the logical
	// journal length is flushed + len(buf).
	buf     []byte
	flushed int64
	dirty   bool
	err     error // sticky: after a write/sync failure the journal is dead
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// prevPath is the previous journal generation kept as a salvage
// target: every compaction rotates the live file aside, so a torn or
// corrupted compaction loses at most one generation.
func prevPath(path string) string { return path + ".prev" }

// OpenJournal opens (creating if needed) the journal at path, replays
// its readable prefix into records, and truncates any torn tail. When
// the live file is a compaction output whose head frame does not
// decode, or is missing beside a <path>.prev, the records come from
// <path>.prev instead, further appends go there until the next
// compaction, and queue.checkpoint_salvaged counts the salvage. The
// returned records are in append order; feed them to Queue.Recover.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	cur := path
	data, err := readJournalFile(path)
	if err != nil {
		return nil, nil, err
	}
	recs, good := decodeJournal(data)
	// Beside a .prev the live file is a compaction output, fsynced
	// before its rename: without a snapshot at its head it is corrupt,
	// or missing because the crash fell between rotation and rename.
	if _, perr := os.Stat(prevPath(path)); perr == nil && (len(recs) == 0 || recs[0].T != recSnapshot) {
		prev, err := readJournalFile(prevPath(path))
		if err != nil {
			return nil, nil, err
		}
		precs, pgood := decodeJournal(prev)
		// Nothing to salvage from .prev is only fine when the live file
		// held nothing either (a crash between rotating an empty first
		// generation and the rename).
		if len(precs) == 0 && (len(prev) > 0 || len(data) > 0) {
			return nil, nil, fmt.Errorf("%w: %s has no readable snapshot and %s no readable records",
				ErrJournalCorrupt, path, prevPath(path))
		}
		ctrCheckpointSalvaged.Add(1)
		cur, data, recs, good = prevPath(path), prev, precs, pgood
	}

	f, err := os.OpenFile(cur, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: open journal: %w", err)
	}
	if good < int64(len(data)) {
		// Torn tail from a crash mid-append: drop it. The transitions it
		// held were never acknowledged as durable.
		ctrJournalTorn.Add(1)
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("engine: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("engine: seek journal: %w", err)
	}
	j := &Journal{
		f:       f,
		path:    path,
		cur:     cur,
		flushed: good,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if len(recs) > 0 && recs[0].T == recSnapshot {
		j.snapBytes = 8 + int64(binary.LittleEndian.Uint32(data[0:4]))
	}
	gaugeJournalBytes.Set(float64(good))
	go j.flusher()
	return j, recs, nil
}

// readJournalFile reads one journal generation; a missing file reads
// as empty.
func readJournalFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("engine: read journal: %w", err)
	}
	return data, nil
}

// decodeJournal parses frames from data, returning every record before
// the first undecodable frame and the byte offset where the good prefix
// ends. It never fails: a corrupt frame just ends the log early. A
// snapshot frame whose jobs break the queue's invariants counts as
// undecodable.
func decodeJournal(data []byte) ([]JournalRecord, int64) {
	var recs []JournalRecord
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		// No size cap: the frames are already in memory, and a length
		// that overruns the data or a crc mismatch rejects a bad header.
		if n == 0 || int64(len(rest)) < 8+int64(n) {
			return recs, off
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off
		}
		var rec JournalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.T == "" {
			return recs, off
		}
		if rec.T == recSnapshot && !validSnapshot(&rec) {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + int64(n)
	}
}

// validSnapshot reports whether a snapshot keeps the job-table
// invariants: unique non-empty job IDs and known lifecycle states.
func validSnapshot(rec *JournalRecord) bool {
	seen := make(map[string]bool, len(rec.Jobs))
	for i := range rec.Jobs {
		j := &rec.Jobs[i]
		if j.ID == "" || seen[j.ID] {
			return false
		}
		seen[j.ID] = true
		switch j.State {
		case JobQueued, JobRunning, JobCompleted, JobFailed:
		default:
			return false
		}
	}
	return true
}

// encodeFrame renders one record with its length+crc header.
func encodeFrame(rec *JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("engine: marshal journal record: %w", err)
	}
	if uint64(len(payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("engine: journal record of %d bytes exceeds the frame length field", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame, nil
}

// Append encodes and buffers one record. With sync set (submits and
// terminal transitions — the records whose loss would break exactly-once
// semantics) the whole buffer is flushed and fsynced before returning:
// one group commit covers every async record buffered before it.
// Without sync the record rides the next group commit (the flusher's
// tick, or the next sync append). Nil-safe.
func (j *Journal) Append(rec JournalRecord, sync bool) error {
	if j == nil {
		return nil
	}
	frame, err := encodeFrame(&rec)
	if err != nil {
		ctrJournalErrors.Add(1)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	j.buf = append(j.buf, frame...)
	j.dirty = true
	famJournalRecords.Counter(rec.T).Add(1)
	gaugeJournalBytes.Set(float64(j.flushed + int64(len(j.buf))))
	if !sync {
		return nil
	}
	return j.flushLocked(true)
}

// flushLocked writes the buffer through and optionally fsyncs. Caller
// holds j.mu. A failure is sticky: the journal refuses further appends
// so recovery never trusts a half-written log.
func (j *Journal) flushLocked(fsync bool) error {
	if j.err != nil {
		return j.err
	}
	if len(j.buf) > 0 {
		n, err := j.f.Write(j.buf)
		j.flushed += int64(n)
		if err != nil {
			j.err = fmt.Errorf("engine: journal write: %w", err)
			ctrJournalErrors.Add(1)
			return j.err
		}
		j.buf = j.buf[:0]
	}
	if fsync {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("engine: journal sync: %w", err)
			ctrJournalErrors.Add(1)
			return j.err
		}
		j.dirty = false
	}
	return nil
}

// flusher is the group-commit loop for async records.
func (j *Journal) flusher() {
	defer close(j.done)
	tick := time.NewTicker(journalFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-tick.C:
			j.mu.Lock()
			if j.dirty && !j.closed {
				_ = j.flushLocked(true)
			}
			j.mu.Unlock()
		}
	}
}

// mark returns the current logical journal length. Compaction takes the
// mark BEFORE snapshotting queue state: every record below the mark
// describes a mutation already visible in the snapshot (records are
// appended after their mutation), so only the records from the mark on
// need to follow the snapshot frame.
func (j *Journal) mark() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushed + int64(len(j.buf))
}

// compactDue reports whether the bytes appended since the head snapshot
// have reached that snapshot's size, and at least compactFloor.
func (j *Journal) compactDue() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	grown := j.flushed + int64(len(j.buf)) - j.snapBytes
	return grown >= max(j.snapBytes, compactFloor)
}

// compact rewrites the journal as [snap][records from mark on]: the
// new generation goes to a temp file in the same directory and is
// fsynced, the current file is rotated to <path>.prev, the temp file is
// renamed into place and the directory fsynced. A crash at any point
// leaves either the old journal, or the new one beside a complete
// .prev — both replay to the same state. The caller takes mark before
// building snap (see mark) and serializes compactions.
//
// The snapshot frame, the bulk of the new file, is written and fsynced
// before j.mu is taken, so appends only wait for the tail copy, one
// fsync and the renames.
func (j *Journal) compact(mark int64, snap *JournalRecord) error {
	frame, err := encodeFrame(snap)
	if err != nil {
		return err
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".sbstd-journal-*")
	if err != nil {
		return fmt.Errorf("engine: compaction temp: %w", err)
	}
	discard := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	fail := func(op string, err error) error {
		discard()
		return fmt.Errorf("engine: compaction %s: %w", op, err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fail("chmod", err)
	}
	if _, err := tmp.Write(frame); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.err != nil {
		discard()
		return j.err
	}
	if err := j.flushLocked(true); err != nil {
		discard()
		return err
	}
	// Chaos point: a compaction that tears mid-file (shortwrite — the
	// live file ends up holding half a snapshot frame) or fails outright
	// (error). The tear lands after the rotation, as a real torn rename
	// would; appends carry on into the rotated file, which is exactly
	// the generation recovery salvages.
	if f := chaos.Maybe("engine.checkpoint.write"); f != nil {
		if ierr := f.Err(); ierr != nil {
			return fail("write", ierr)
		}
		if torn, ok := f.ShortWrite(frame); ok {
			discard()
			if err := j.rotateLocked(); err != nil {
				return err
			}
			_ = os.WriteFile(j.path, torn, 0o644)
			return nil
		}
	}
	mark = min(mark, j.flushed)
	tail := make([]byte, j.flushed-mark)
	if _, err := j.f.ReadAt(tail, mark); err != nil {
		discard()
		j.err = fmt.Errorf("engine: journal tail read: %w", err)
		ctrJournalErrors.Add(1)
		return j.err
	}
	if _, err := tmp.Write(tail); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := j.rotateLocked(); err != nil {
		return fail("rotate", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		// The journal keeps appending to the rotated file, which is
		// where OpenJournal finds it.
		return fail("rename", err)
	}
	syncDir(dir)
	old := j.f
	j.f, j.cur = tmp, j.path
	j.snapBytes = int64(len(frame))
	j.flushed = int64(len(frame) + len(tail))
	old.Close()
	ctrJournalTruncate.Add(1)
	gaugeJournalBytes.Set(float64(j.flushed))
	return nil
}

// rotateLocked moves the file being appended to into the .prev slot,
// unless it is already there. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	prev := prevPath(j.path)
	if j.cur == prev {
		return nil
	}
	if err := os.Rename(j.cur, prev); err != nil {
		return fmt.Errorf("engine: rotate journal: %w", err)
	}
	j.cur = prev
	return nil
}

// syncDir fsyncs a directory so the renames within it are durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Close flushes, fsyncs, and closes the journal. Nil-safe; idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	err := j.flushLocked(true)
	j.closed = true
	close(j.stop)
	cerr := j.f.Close()
	j.mu.Unlock()
	<-j.done
	if err != nil {
		return err
	}
	return cerr
}

// Path returns the journal file path ("" on nil).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}
