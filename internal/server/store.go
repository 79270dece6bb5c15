package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// The on-disk job store is a segmented write-ahead log plus an atomic
// result directory:
//
//	<dir>/wal-NNNNNN.log     length+CRC framed, fsync'd append-only segments
//	<dir>/results/<key>.json whole-file results, written tmp+rename+fsync
//	<dir>/results/<key>.trace.json per-job Chrome-trace artifacts (best effort)
//
// Each WAL record is [len uint32][crc32 uint32][payload JSON], little
// endian. Appends are fsync'd before the caller is told the operation
// succeeded — Accept returning nil IS the daemon's 202, so a kill -9 at
// any later instant cannot lose the job. Because segments are
// append-only, a torn write can exist only at the tail of the newest
// segment: replay stops at the first frame whose length or checksum does
// not hold, truncates there, and the store is exactly the prefix of
// operations that were fully written. Results are never written in
// place; a result file either does not exist or is complete.
//
// Segment rotation: when the active segment passes SegmentBytes the
// store seals it and appends to a fresh one. A sealed segment whose every
// referenced job/sweep is terminal is compacted live: one summary record
// per id (accept + done, current state) is appended to the active
// segment and fsync'd, then the sealed file is deleted. Replay is
// idempotent — a duplicate accept keeps the first spec, a duplicate done
// re-applies the same terminal state — so a crash anywhere inside
// compaction (before the summary, between summary and delete, after the
// delete) replays to the same state. Long-lived deployments therefore
// keep O(live jobs) log bytes instead of growing one file forever.
// Checkpoint (graceful drain) is the same compaction over the whole chain.
//
// Crash-recovery state machine (replayed in segment + WAL order):
//
//	accept(id)        -> job pending
//	sweep(id)         -> sweep pending (children are ordinary jobs)
//	done(id, ok)      -> job/sweep done (result file must exist; if the
//	                     artifact vanished the entry degrades to pending
//	                     and is simply re-run — simulations are
//	                     deterministic, so the re-run is byte-identical)
//	done(id, failed)  -> failed (typed kind + message preserved)
//
// A job that was running at the moment of the crash has an accept record
// and no done record, so replay re-enqueues it.

// ErrStoreDead is returned by every operation after an injected crash:
// the chaos harness uses it to guarantee a "dead" store stops mutating
// disk at exactly the injected point, like the process it stands in for.
var ErrStoreDead = errors.New("server: job store is dead (injected crash)")

// CrashPoint names the instants the chaos harness may kill the store at.
type CrashPoint string

const (
	CrashBeforeAppend  CrashPoint = "before-append"  // record never written
	CrashAfterWrite    CrashPoint = "after-write"    // written, not synced: tail may tear
	CrashAfterSync     CrashPoint = "after-sync"     // durable, caller never told
	CrashAfterResult   CrashPoint = "after-result"   // result durable, done record absent
	CrashDuringCompact CrashPoint = "during-compact" // summary durable, sealed segment not yet deleted
)

// maxRecord bounds one WAL payload; anything larger during replay is
// treated as a torn/corrupt tail.
const maxRecord = 1 << 20

// DefaultSegmentBytes is the rotation threshold when the caller does not
// choose one.
const DefaultSegmentBytes = 4 << 20

// walRecord is the JSON payload of one frame.
type walRecord struct {
	Op       string     `json:"op"` // accept | sweep | done
	ID       string     `json:"id"`
	Spec     *JobSpec   `json:"spec,omitempty"`
	Sweep    *SweepSpec `json:"sweep,omitempty"`
	Status   string     `json:"status,omitempty"` // ok | failed
	FailKind string     `json:"fail_kind,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// StoredEntry is one job's or one sweep's durable state after replay:
// exactly one of Job and Sweep is set. A sweep's children are not stored
// with it — they are ordinary job entries, recomputed deterministically
// from the sweep spec on replay.
type StoredEntry struct {
	ID       string
	Job      *JobSpec
	Sweep    *SweepSpec
	State    string // StateAccepted | StateDone | StateFailed
	FailKind string
	Error    string
}

// summary returns the records that replay to e's current state: its
// accept (or sweep) record, plus its done record once terminal.
func (e *StoredEntry) summary() []walRecord {
	recs := []walRecord{{Op: "accept", ID: e.ID, Spec: e.Job}}
	if e.Sweep != nil {
		recs[0] = walRecord{Op: "sweep", ID: e.ID, Sweep: e.Sweep}
	}
	switch e.State {
	case StateDone:
		recs = append(recs, walRecord{Op: "done", ID: e.ID, Status: "ok"})
	case StateFailed:
		recs = append(recs, walRecord{Op: "done", ID: e.ID, Status: "failed",
			FailKind: e.FailKind, Error: e.Error})
	}
	return recs
}

// segment is one WAL file plus the set of job/sweep ids it references
// (the compaction unit).
type segment struct {
	index int
	path  string
	ids   map[string]bool
}

// Store is the durable job store. All methods are safe for concurrent
// use; every mutation is fsync'd before it reports success.
type Store struct {
	dir      string
	segBytes int64

	mu         sync.Mutex
	wal        *os.File   // active segment handle
	cur        *segment   // active segment bookkeeping
	walSize    int64      // bytes in the active segment
	sealed     []*segment // older segments, oldest first
	entries    map[string]*StoredEntry
	order      []string // entry ids in acceptance order
	dead       bool
	compacting bool // summary appends in flight: rotation waits

	// Truncated reports how many torn/untrustworthy tail bytes replay
	// discarded — observability for the recovery path, asserted on by the
	// chaos tests.
	Truncated int64
	// Replayed counts the records recovered from the existing WAL.
	Replayed int
	// Compacted counts sealed segments removed by live compaction (and
	// checkpoint) over this store's lifetime.
	Compacted int

	// crash is the chaos hook (nil in production): consulted at each
	// CrashPoint; a non-nil return kills the store there.
	crash func(CrashPoint) error
	// fault is the transient-failure hook (nil in production): a non-nil
	// return fails the operation without killing the store — the disk
	// hiccup the in-process settlement retry path recovers from.
	fault func(op string) error
}

// OpenStore opens (creating if needed) the job store in dir and replays
// the WAL, truncating a torn tail. segBytes is the segment rotation
// threshold (<= 0 selects DefaultSegmentBytes).
func OpenStore(dir string, segBytes int64) (*Store, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	s := &Store{dir: dir, segBytes: segBytes, entries: make(map[string]*StoredEntry)}
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		s.wal.Close()
		return nil, err
	}
	return s, nil
}

// segPath names segment i.
func (s *Store) segPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", i))
}

// openSegments discovers, replays, and repairs the segment chain, leaving
// s.wal positioned for appends on the newest segment.
func (s *Store) openSegments() error {
	// Migrate a pre-rotation store: its single wal.log becomes segment 1.
	legacy := filepath.Join(s.dir, "wal.log")
	if _, err := os.Stat(legacy); err == nil {
		if _, err := os.Stat(s.segPath(1)); errors.Is(err, os.ErrNotExist) {
			if err := os.Rename(legacy, s.segPath(1)); err != nil {
				return fmt.Errorf("server: store: migrate wal.log: %w", err)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	var segs []*segment
	for _, p := range paths {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &idx); err != nil {
			continue // not ours
		}
		segs = append(segs, &segment{index: idx, path: p, ids: map[string]bool{}})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	if len(segs) == 0 {
		segs = []*segment{{index: 1, path: s.segPath(1), ids: map[string]bool{}}}
	}

	// Replay in order. An invalid frame in the NEWEST segment is the torn
	// tail a synced append-only log can legitimately suffer: truncate and
	// continue appending there. An invalid frame in an older segment means
	// everything after it is untrustworthy (same policy as the single-log
	// store): truncate that segment, discard all later segments, and make
	// the truncated one the active segment again.
	active := len(segs) - 1
	var activeValid int64
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: store: %w", err)
		}
		valid := s.replay(data, seg.ids)
		if valid < int64(len(data)) || err != nil {
			s.Truncated += int64(len(data)) - valid
			for _, later := range segs[i+1:] {
				if st, serr := os.Stat(later.path); serr == nil {
					s.Truncated += st.Size()
				}
				os.Remove(later.path)
			}
			active, activeValid = i, valid
			break
		}
		if i == active {
			activeValid = valid
		}
	}
	s.sealed = append(s.sealed, segs[:active]...)
	s.cur = segs[active]
	f, err := os.OpenFile(s.cur.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	if err := f.Truncate(activeValid); err != nil {
		f.Close()
		return fmt.Errorf("server: store: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(activeValid, 0); err != nil {
		f.Close()
		return fmt.Errorf("server: store: %w", err)
	}
	s.wal = f
	s.walSize = activeValid
	return nil
}

// replay applies every fully-written record in data, adds touched ids to
// ids, and returns the byte offset of the last valid frame's end
// (everything past it is torn).
func (s *Store) replay(data []byte, ids map[string]bool) int64 {
	off := 0
	for {
		if len(data)-off < 8 {
			return int64(off)
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecord || len(data)-off-8 < int(n) {
			return int64(off)
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return int64(off)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return int64(off)
		}
		s.apply(rec)
		if ids != nil {
			ids[rec.ID] = true
		}
		s.Replayed++
		off += 8 + int(n)
	}
}

// apply folds one record into the in-memory state (replay rules above).
// Replay and the live mutations share it, so the store's memory is always
// what a reopen would rebuild.
func (s *Store) apply(rec walRecord) {
	var e *StoredEntry
	switch rec.Op {
	case "accept":
		e = &StoredEntry{ID: rec.ID, Job: rec.Spec, State: StateAccepted}
	case "sweep":
		e = &StoredEntry{ID: rec.ID, Sweep: rec.Sweep, State: StateAccepted}
	case "done":
		// done(ok) without its artifact stays pending: the entry re-runs
		// deterministically.
		if d, ok := s.entries[rec.ID]; ok && rec.Status != "ok" {
			d.State, d.FailKind, d.Error = StateFailed, rec.FailKind, rec.Error
		} else if ok && s.hasResultFile(rec.ID) {
			d.State = StateDone
		}
		return
	default:
		return
	}
	if _, ok := s.entries[rec.ID]; ok || (e.Job == nil && e.Sweep == nil) {
		return // idempotent: duplicate accepts collapse to the first spec
	}
	s.entries[rec.ID] = e
	s.order = append(s.order, rec.ID)
}

// Entries returns every stored job and sweep in WAL (acceptance) order.
func (s *Store) Entries() []StoredEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredEntry, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.entries[id])
	}
	return out
}

// Segments reports how many WAL segments exist (sealed + active) —
// observability for the rotation path.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed) + 1
}

// CompactedSegments reports how many sealed segments live compaction (and
// checkpoint) removed over this store's lifetime.
func (s *Store) CompactedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Compacted
}

// frame encodes one record as [len][crc][payload].
func frame(rec walRecord) []byte {
	payload := canonicalJSON(rec)
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// appendAll frames, writes, and fsyncs a batch of records as one write +
// one sync while holding s.mu, then rotates the active segment if it
// passed the size threshold. Batching is what makes a wide sweep fan-out
// one durability round-trip instead of one per child.
func (s *Store) appendAll(recs []walRecord) error {
	if s.dead || s.wal == nil {
		return ErrStoreDead
	}
	if s.fault != nil {
		if err := s.fault("append"); err != nil {
			return err
		}
	}
	if err := s.at(CrashBeforeAppend); err != nil {
		return err
	}
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, frame(rec)...)
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	if err := s.at(CrashAfterWrite); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("server: wal sync: %w", err)
	}
	if err := s.at(CrashAfterSync); err != nil {
		return err
	}
	s.walSize += int64(len(buf))
	for _, rec := range recs {
		s.cur.ids[rec.ID] = true
	}
	if s.walSize >= s.segBytes && !s.compacting {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// commitLocked durably appends recs as one batch, then folds them into
// the in-memory state through the same apply that replay uses.
func (s *Store) commitLocked(recs ...walRecord) error {
	if err := s.appendAll(recs); err != nil {
		return err
	}
	for _, rec := range recs {
		s.apply(rec)
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	next := &segment{index: s.cur.index + 1, ids: map[string]bool{}}
	next.path = s.segPath(next.index)
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: wal rotate: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.wal.Close()
	s.sealed = append(s.sealed, s.cur)
	s.cur, s.wal, s.walSize = next, f, 0
	return nil
}

// maybeCompactLocked retires every sealed segment whose referenced ids are
// all terminal (an id the store does not know has no state to lose).
func (s *Store) maybeCompactLocked() error {
next:
	for i := 0; i < len(s.sealed); {
		seg := s.sealed[i]
		ids := make([]string, 0, len(seg.ids))
		for id := range seg.ids {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var summary []walRecord
		for _, id := range ids {
			e, ok := s.entries[id]
			if ok && e.State != StateDone && e.State != StateFailed {
				i++
				continue next
			}
			if ok {
				summary = append(summary, e.summary()...)
			}
		}
		if err := s.retireLocked([]*segment{seg}, summary); err != nil {
			return err
		}
	}
	return nil
}

// retireLocked compacts victims away: their entries' summary records are
// appended to the active segment and fsync'd, then the sealed files are
// unlinked. Replay is idempotent, so a crash between the two replays
// duplicates that collapse to the same state; an unlink without its
// summary cannot happen.
func (s *Store) retireLocked(victims []*segment, summary []walRecord) error {
	if len(summary) > 0 {
		// Summaries stay in the active segment: rotating here could seal a
		// segment of summaries that compaction would then retire again.
		s.compacting = true
		err := s.appendAll(summary)
		s.compacting = false
		if err != nil {
			return err
		}
	}
	if err := s.at(CrashDuringCompact); err != nil {
		return err
	}
	for _, seg := range victims {
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: wal compact: %w", err)
		}
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.sealed = slices.DeleteFunc(s.sealed, func(seg *segment) bool { return slices.Contains(victims, seg) })
	s.Compacted += len(victims)
	return nil
}

// at consults the crash hook; on injection the store dies in place.
func (s *Store) at(p CrashPoint) error {
	if s.crash == nil {
		return nil
	}
	if err := s.crash(p); err != nil {
		s.dead = true
		return err
	}
	return nil
}

// Accept durably records the job. When Accept returns nil the job is
// guaranteed to survive any crash; the HTTP layer acknowledges only then.
// Accepting an already-stored id is a no-op (idempotent resubmission).
func (s *Store) Accept(id string, spec JobSpec) error {
	return s.accept(walRecord{Op: "accept", ID: id, Spec: &spec})
}

// AcceptSweep durably records a sweep and every child job it fans out to
// in ONE batched append (one fsync): when it returns nil the whole fan-out
// survives any crash. The sweep record is written last so a torn batch
// replays as plain orphan jobs (harmless, deterministic) rather than a
// sweep with missing children; recovery re-accepts missing children
// either way.
func (s *Store) AcceptSweep(id string, spec SweepSpec, childIDs []string, childSpecs []JobSpec) error {
	recs := make([]walRecord, 0, len(childIDs)+1)
	for i, cid := range childIDs {
		cs := childSpecs[i]
		recs = append(recs, walRecord{Op: "accept", ID: cid, Spec: &cs})
	}
	return s.accept(append(recs, walRecord{Op: "sweep", ID: id, Sweep: &spec})...)
}

// accept durably appends, as one batch, the records whose ids are not yet
// stored. Skipping stored ids — dedupe on content keys — is what makes
// resubmission idempotent and a resumed or overlapping sweep free.
func (s *Store) accept(recs ...walRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := recs[:0]
	for _, rec := range recs {
		if _, ok := s.entries[rec.ID]; !ok {
			fresh = append(fresh, rec)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	return s.commitLocked(fresh...)
}

// Settle durably records an entry's terminal state: done when failKind is
// empty, else failed with the typed kind and message. A done entry's
// result artifact must have been saved first (SaveResult); that ordering
// is what makes "done" imply "result readable" across any crash.
// Settlement is also the live-compaction trigger: a terminal record is
// what lets a sealed segment become fully settled.
func (s *Store) Settle(id, failKind, msg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; !ok {
		return fmt.Errorf("server: settle: unknown entry %s", id)
	}
	rec := walRecord{Op: "done", ID: id, Status: "ok"}
	if failKind != "" {
		rec = walRecord{Op: "done", ID: id, Status: "failed", FailKind: failKind, Error: msg}
	}
	if err := s.commitLocked(rec); err != nil {
		return err
	}
	return s.maybeCompactLocked()
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

func (s *Store) tracePath(id string) string {
	return filepath.Join(s.dir, "results", id+".trace.json")
}

func (s *Store) hasResultFile(id string) bool {
	_, err := os.Stat(s.resultPath(id))
	return err == nil
}

// writeFileAtomic lands data at path via temp file + fsync + rename +
// directory fsync: a crash at any instant leaves either no file or the
// complete file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	return syncDir(dir)
}

// SaveResult atomically persists the job's (or sweep's) result artifact.
func (s *Store) SaveResult(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	if s.fault != nil {
		if err := s.fault("result"); err != nil {
			return err
		}
	}
	if err := writeFileAtomic(s.resultPath(id), data); err != nil {
		return err
	}
	return s.at(CrashAfterResult)
}

// SaveTrace atomically persists the job's Chrome-trace artifact. Traces
// are best-effort observability, not part of the durability contract: a
// job is complete with or without one.
func (s *Store) SaveTrace(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	return writeFileAtomic(s.tracePath(id), data)
}

// Result reads the persisted result artifact.
func (s *Store) Result(id string) ([]byte, error) {
	return os.ReadFile(s.resultPath(id))
}

// Trace reads the persisted Chrome-trace artifact.
func (s *Store) Trace(id string) ([]byte, error) {
	return os.ReadFile(s.tracePath(id))
}

// HasResult reports whether the job's result artifact is on disk.
func (s *Store) HasResult(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasResultFile(id)
}

// Checkpoint compacts the whole WAL on graceful drain, so a restart
// replays a minimal queue: it rotates to a fresh segment, appends every
// entry's summary there in one batched fsync, then retires every older
// segment. It is live compaction over the whole chain, with the same
// crash argument.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.wal == nil {
		return ErrStoreDead
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	var summary []walRecord
	for _, id := range s.order {
		summary = append(summary, s.entries[id].summary()...)
	}
	return s.retireLocked(slices.Clone(s.sealed), summary)
}

// Close releases the WAL handle (no flush needed: every append synced).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-created/renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("server: sync dir %s: %w", dir, err)
	}
	return nil
}
