package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Tiny segments force rollover every few records so the tests exercise
// the rotation + live-compaction machinery that production only reaches
// after megabytes of churn.
const tinySeg = 256

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestStoreRotationBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: every job settles immediately, so every sealed segment is
	// fully settled and live compaction should keep the chain short no
	// matter how many jobs flow through.
	const jobs = 40
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%03d", i)
		if err := st.Accept(id, testSpec("lbm06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.Settle(id, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.CompactedSegments(); n == 0 {
		t.Fatal("no sealed segment was ever compacted under settle-everything churn")
	}
	// The summary records themselves are subject to rotation, so the chain
	// stays bounded rather than merely "smaller than one file per job".
	if n := st.Segments(); n > 4 {
		t.Fatalf("segment chain grew to %d, want <= 4 (compaction not keeping up)", n)
	}
	st.Close()

	re, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Entries()
	if len(got) != jobs {
		t.Fatalf("replayed %d jobs, want %d", len(got), jobs)
	}
	for _, j := range got {
		if j.State != StateDone {
			t.Fatalf("%s: state %s after compacted replay, want done", j.ID, j.State)
		}
	}
}

func TestStoreUnsettledSegmentSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A job that never settles pins its segment: everything it references
	// must survive however much later churn compacts around it.
	if err := st.Accept("pinned", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("churn%03d", i)
		if err := st.Accept(id, testSpec("mcf06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.Settle(id, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if st.CompactedSegments() == 0 {
		t.Fatal("settled churn segments were never compacted")
	}
	// The pinned job's segment (the oldest) must still be on disk.
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
		t.Fatalf("segment holding an unsettled job was deleted: %v", err)
	}
	st.Close()
	re, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, j := range re.Entries() {
		want := StateDone
		if j.ID == "pinned" {
			want = StateAccepted
		}
		if j.State != want {
			t.Fatalf("%s: state %s, want %s", j.ID, j.State, want)
		}
	}
}

func TestStoreCrashDuringCompactionLosesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash")
	st.crash = func(p CrashPoint) error {
		if p == CrashDuringCompact {
			return boom
		}
		return nil
	}
	// Drive until a compaction actually fires. The crash lands in the
	// worst window: the summary records are durable in the active segment
	// but the sealed segment they duplicate was NOT deleted.
	var crashed bool
	var ids []string
	for i := 0; i < 40 && !crashed; i++ {
		id := fmt.Sprintf("j%03d", i)
		ids = append(ids, id)
		if err := st.Accept(id, testSpec("lbm06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.Settle(id, "", ""); errors.Is(err, boom) {
			crashed = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !crashed {
		t.Fatal("compaction never triggered with tiny segments")
	}
	// Dead store, like the process it models.
	if err := st.Accept("late", testSpec("mcf06")); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Accept err = %v, want ErrStoreDead", err)
	}
	st.Close()

	// Replay sees the sealed segment AND its summary duplicates; idempotent
	// apply collapses them to exactly the pre-crash state.
	re, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := map[string]string{}
	for _, j := range re.Entries() {
		got[j.ID] = j.State
	}
	for _, id := range ids {
		if got[id] != StateDone {
			t.Fatalf("%s: state %q after crash-during-compact replay, want done", id, got[id])
		}
	}
	if len(got) != len(ids) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(ids))
	}
}

func TestStoreLegacyWALMigrates(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j1", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Rewind history: a pre-rotation daemon left a single wal.log.
	if err := os.Rename(filepath.Join(dir, "wal-000001.log"),
		filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if jobs := re.Entries(); len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("legacy replay got %d jobs", len(jobs))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("legacy wal.log still present after migration")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
		t.Fatalf("migrated segment missing: %v", err)
	}
}

func TestStoreCorruptSealedSegmentDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing settles, so nothing compacts: the chain grows one segment at
	// a time and every record stays where it was written.
	for i := 0; i < 12; i++ {
		if err := st.Accept(fmt.Sprintf("j%03d", i), testSpec("lbm06")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	files := walFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", len(files))
	}

	// Flip a payload byte in the SECOND segment: everything after the
	// corruption — the rest of that segment and all later segments — is
	// untrustworthy and must be discarded, not replayed around.
	second := filepath.Join(dir, "wal-000002.log")
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Truncated == 0 {
		t.Fatal("Truncated = 0, want the discarded bytes counted")
	}
	// Only segment 1's records (plus none of the corrupt segment's) survive.
	first, err := os.ReadFile(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	probe := &Store{entries: map[string]*StoredEntry{}}
	probe.replay(first, nil)
	if len(re.Entries()) != len(probe.entries) {
		t.Fatalf("replayed %d jobs, want exactly segment 1's %d", len(re.Entries()), len(probe.entries))
	}
	for _, p := range walFiles(t, dir) {
		var idx int
		fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &idx)
		if idx > 2 {
			t.Fatalf("segment %s survived a mid-chain corruption before it", p)
		}
	}
	// The repaired store accepts appends and replays them on the next boot.
	if err := re.Accept("fresh", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenStore(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	found := false
	for _, j := range re2.Entries() {
		if j.ID == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("append after mid-chain repair lost")
	}
}
