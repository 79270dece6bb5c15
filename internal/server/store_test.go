package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testSpec(workload string) JobSpec {
	s := JobSpec{Workload: workload, Schemes: []string{"uncompressed"},
		Cores: 2, Warmup: 1000, Measure: 2000, Seed: 1, Tenant: "t"}
	return s
}

func TestStoreAcceptSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("lbm06")
	if err := st.Accept("j1", spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j1", spec); err != nil {
		t.Fatal("re-accept must be idempotent:", err)
	}
	if err := st.Settle("j1", FailKindTimeout, "too slow"); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j2", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Entries()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j1" || jobs[0].State != StateFailed ||
		jobs[0].FailKind != FailKindTimeout || jobs[0].Error != "too slow" {
		t.Fatalf("j1 replayed wrong: %+v", jobs[0])
	}
	if jobs[1].ID != "j2" || jobs[1].State != StateAccepted {
		t.Fatalf("j2 replayed wrong: %+v", jobs[1])
	}
	if jobs[1].Job.Workload != "mcf06" {
		t.Fatalf("spec lost: %+v", jobs[1].Job)
	}
}

func TestStoreDoneRequiresArtifact(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, 0)
	if err := st.Accept("j1", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("j1", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Settle("j1", "", ""); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Sabotage: delete the artifact under the done record. Replay must
	// degrade the job to pending (re-run) instead of serving a ghost.
	os.Remove(filepath.Join(dir, "results", "j1.json"))
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Entries()[0].State; got != StateAccepted {
		t.Fatalf("state = %s, want accepted (artifact missing)", got)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, 0)
	st.Accept("j1", testSpec("lbm06"))
	st.Accept("j2", testSpec("mcf06"))
	st.Close()

	wal := filepath.Join(dir, "wal-000001.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: keep the first record whole, chop the second mid-way.
	if err := os.WriteFile(wal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Entries()
	if len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("after torn tail: %d jobs, want only j1", len(jobs))
	}
	// The whole torn record is discarded, not just the missing bytes.
	if re.Truncated == 0 {
		t.Fatal("Truncated = 0, want the torn record's remaining bytes")
	}
	// The truncated log must accept new appends cleanly.
	if err := re.Accept("j3", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, _ := OpenStore(dir, 0)
	defer re2.Close()
	if n := len(re2.Entries()); n != 2 {
		t.Fatalf("after repair+append: %d jobs, want 2", n)
	}
}

func TestStoreCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, 0)
	st.Accept("j1", testSpec("lbm06"))
	end1, _ := os.Stat(filepath.Join(dir, "wal-000001.log"))
	st.Accept("j2", testSpec("mcf06"))
	st.Close()

	// Flip one payload byte inside the second record: its CRC fails, and
	// replay keeps only the prefix (a mid-log corruption means everything
	// after it is untrustworthy).
	wal := filepath.Join(dir, "wal-000001.log")
	data, _ := os.ReadFile(wal)
	data[end1.Size()+20] ^= 0xFF
	os.WriteFile(wal, data, 0o644)

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if jobs := re.Entries(); len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("after corrupt record: got %d jobs", len(jobs))
	}
}

func TestStoreCheckpointCompacts(t *testing.T) {
	sweep := func(w string) SweepSpec {
		return SweepSpec{Workloads: []string{w}, Schemes: []string{"ptmc"}, Seeds: []int64{1}, Tenant: "t"}
	}
	// crash: the hook fires at CrashAfterSync inside Checkpoint, so the
	// summary is durable but the older segments are not yet removed.
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%t", crash), func(t *testing.T) {
			want := map[string]string{"j1": StateDone, "j2": StateFailed, "j3": StateAccepted,
				"s1": StateDone, "s2": StateFailed, "s3": StateAccepted}
			dir := t.TempDir()
			st, _ := OpenStore(dir, 0)
			st.Accept("j1", testSpec("lbm06"))
			st.SaveResult("j1", []byte(`{}`))
			st.Settle("j1", "", "")
			st.Accept("j2", testSpec("mcf06"))
			st.Settle("j2", FailKindSim, "boom")
			st.Accept("j3", testSpec("lbm06"))
			st.AcceptSweep("s1", sweep("lbm06"), nil, nil)
			st.SaveResult("s1", []byte(`{}`))
			st.Settle("s1", "", "")
			st.AcceptSweep("s2", sweep("mcf06"), nil, nil)
			st.Settle("s2", "internal", "aggregate failed")
			st.AcceptSweep("s3", sweep("omnetpp06"), nil, nil)
			boom := errors.New("crash")
			if crash {
				st.crash = func(p CrashPoint) error {
					if p == CrashAfterSync {
						return boom
					}
					return nil
				}
				if err := st.Checkpoint(); !errors.Is(err, boom) {
					t.Fatalf("Checkpoint err = %v, want injected crash", err)
				}
				if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
					t.Fatalf("old segment removed before the crash point: %v", err)
				}
				if fi, err := os.Stat(filepath.Join(dir, "wal-000002.log")); err != nil || fi.Size() == 0 {
					t.Fatalf("summary segment missing or empty at the crash point: %v", err)
				}
			} else {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("checkpoint left the old segment behind: %v", err)
				}
				// Post-checkpoint appends must land in the compacted log.
				if err := st.Accept("j4", testSpec("mcf06")); err != nil {
					t.Fatal(err)
				}
				want["j4"] = StateAccepted
			}
			st.Close()

			re, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			entries := re.Entries()
			if len(entries) != len(want) {
				t.Fatalf("replayed %d entries, want %d", len(entries), len(want))
			}
			for _, e := range entries {
				if e.State != want[e.ID] {
					t.Errorf("%s: state %s, want %s", e.ID, e.State, want[e.ID])
				}
				if isSweep := e.ID[0] == 's'; (e.Sweep != nil) != isSweep || (e.Job != nil) == isSweep {
					t.Errorf("%s: replayed as the wrong kind: %+v", e.ID, e)
				}
			}
		})
	}
}

func TestStoreInjectedCrashKillsStore(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, 0)
	boom := errors.New("crash")
	st.crash = func(p CrashPoint) error {
		if p == CrashAfterWrite {
			return boom
		}
		return nil
	}
	if err := st.Accept("j1", testSpec("lbm06")); !errors.Is(err, boom) {
		t.Fatalf("Accept err = %v, want injected crash", err)
	}
	// Dead store: everything fails, nothing mutates disk.
	if err := st.Accept("j2", testSpec("mcf06")); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Accept err = %v, want ErrStoreDead", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Checkpoint err = %v, want ErrStoreDead", err)
	}
}

// TestFrameGolden pins the on-disk record format: the exact frame bytes
// (length, CRC and payload) that existing stores were written in. Any
// change here breaks replay of every store on disk.
func TestFrameGolden(t *testing.T) {
	spec := JobSpec{Workload: "lbm06", Schemes: []string{"uncompressed", "ptmc"}, Cores: 2,
		Warmup: 1000, Measure: 2000, Seed: 7, TimeoutSec: 30, Tenant: "t",
		Priority: PriorityInteractive, Trace: true}
	sw := SweepSpec{Workloads: []string{"lbm06", "mcf06"}, Schemes: []string{"ptmc"},
		Seeds: []int64{1, 2}, Cores: 2, Warmup: 100, Measure: 200, TimeoutSec: 5, Tenant: "t"}
	cases := []struct {
		rec     walRecord
		header  string // [len][crc], little endian, hex
		payload string
	}{
		{walRecord{Op: "accept", ID: "j7b952eac7749d4df", Spec: &spec}, "e6000000a9d25a9c",
			`{"op":"accept","id":"j7b952eac7749d4df","spec":{"workload":"lbm06","schemes":["uncompressed","ptmc"],"cores":2,"warmup_instr":1000,"measure_instr":2000,"seed":7,"timeout_sec":30,"tenant":"t","priority":"interactive","trace":true}}`},
		{walRecord{Op: "sweep", ID: "s7f5f8bba790bb49e", Sweep: &sw}, "be000000290d248a",
			`{"op":"sweep","id":"s7f5f8bba790bb49e","sweep":{"workloads":["lbm06","mcf06"],"schemes":["ptmc"],"seeds":[1,2],"cores":2,"warmup_instr":100,"measure_instr":200,"timeout_sec":5,"tenant":"t"}}`},
		{walRecord{Op: "done", ID: "j7b952eac7749d4df", Status: "ok"}, "34000000a9ffa4d4",
			`{"op":"done","id":"j7b952eac7749d4df","status":"ok"}`},
		{walRecord{Op: "done", ID: "jc18146cd6bcaacc2", Status: "failed", FailKind: FailKindTimeout,
			Error: "ptmc: context deadline exceeded"}, "78000000de51e5ad",
			`{"op":"done","id":"jc18146cd6bcaacc2","status":"failed","fail_kind":"timeout","error":"ptmc: context deadline exceeded"}`},
	}
	for _, c := range cases {
		hdr, err := hex.DecodeString(c.header)
		if err != nil {
			t.Fatal(err)
		}
		want := append(hdr, c.payload...)
		if got := frame(c.rec); !bytes.Equal(got, want) {
			t.Errorf("%s %s frame:\n got %x %s\nwant %s %s", c.rec.Op, c.rec.ID, got[:8], got[8:], c.header, c.payload)
		}
	}
}

// FuzzStoreReplay opens a store whose only WAL segment holds arbitrary
// bytes. Opening must never panic, must keep exactly a prefix of the input
// (kept + truncated bytes == input length), and reopening the repaired
// store must be a fixed point: the same entries, nothing truncated.
func FuzzStoreReplay(f *testing.F) {
	spec := testSpec("lbm06")
	sw := SweepSpec{Workloads: []string{"lbm06"}, Schemes: []string{"ptmc"}, Seeds: []int64{1}}
	var valid []byte
	for _, rec := range []walRecord{
		{Op: "accept", ID: "j1", Spec: &spec},
		{Op: "sweep", ID: "s1", Sweep: &sw},
		{Op: "done", ID: "j1", Status: "failed", FailKind: FailKindSim, Error: "boom"},
		{Op: "done", ID: "s1", Status: "ok"},
		{Op: "accept", ID: "j1", Spec: &spec},
	} {
		valid = append(valid, frame(rec)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(append(valid[:8:8], valid[12:]...))
	f.Add(frame(walRecord{Op: "accept", ID: "j2"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "wal-000001.log")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := st.Entries()
		st.Close()
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size()+st.Truncated != int64(len(data)) {
			t.Fatalf("kept %d + truncated %d bytes != input %d", fi.Size(), st.Truncated, len(data))
		}
		re, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Truncated != 0 {
			t.Fatalf("second open truncated %d more bytes", re.Truncated)
		}
		if second := re.Entries(); !reflect.DeepEqual(first, second) {
			t.Fatalf("second open is not a fixed point:\n first %+v\nsecond %+v", first, second)
		}
	})
}
