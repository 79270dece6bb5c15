package server

import (
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// Requests and WAL records written before the engine knobs were removed
// may still carry "shards" and "event_driven". They must decode, be
// ignored, and leave every content key where it was.

// TestKeyStableAcrossEngineKnobRemoval pins the keys a store computed
// while the knobs existed: an upgrade must neither re-simulate a stored
// job nor orphan its artifact.
func TestKeyStableAcrossEngineKnobRemoval(t *testing.T) {
	def := JobSpec{Workload: "lbm06"}
	if err := def.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := def.Key(), "jc18146cd6bcaacc2"; got != want {
		t.Errorf("default spec Key = %s, want %s", got, want)
	}
	if got, want := def.SchemeKey(def.Schemes[0]),
		"lbm06|dynamic-ptmc|c8|w700000|m500000|s1|sh0|evfalse|trfalse"; got != want {
		t.Errorf("default spec SchemeKey = %s, want %s", got, want)
	}
	custom := JobSpec{Workload: "mcf06", Schemes: []string{"ptmc", "uncompressed"},
		Cores: 2, Warmup: 1000, Measure: 2000, Seed: 7, TimeoutSec: 30, Trace: true}
	if err := custom.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := custom.Key(), "j7b952eac7749d4df"; got != want {
		t.Errorf("custom spec Key = %s, want %s", got, want)
	}
	sw := SweepSpec{Workloads: []string{"lbm06"}, Schemes: []string{"ptmc"}}
	if err := sw.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := sw.Key(), "s7f5f8bba790bb49e"; got != want {
		t.Errorf("sweep Key = %s, want %s", got, want)
	}
}

// TestLegacyEngineFieldsShareJob: two submissions that differ only in the
// removed knobs are the same experiment, so they are one job.
func TestLegacyEngineFieldsShareJob(t *testing.T) {
	_, hs := newTestServer(t, nil, nil)
	code, st := submit(t, hs, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	legacy := tinySpec[:len(tinySpec)-1] + `,"shards":4,"event_driven":true}`
	code2, st2 := submit(t, hs, legacy)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("legacy resubmit = %d id %s, want 200 id %s", code2, st2.ID, st.ID)
	}
}

// TestLegacyEngineFieldsReplay: a store holding a job accepted with the
// removed knobs set replays it, runs it, and settles it done.
func TestLegacyEngineFieldsReplay(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"id":"j9f0e1d2c3b4a5968","op":"accept","spec":{"cores":2,"event_driven":true,` +
		`"measure_instr":200,"priority":"batch","schemes":["ptmc"],"seed":1,"shards":4,` +
		`"tenant":"default","warmup_instr":100,"workload":"lbm06"}}`)
	rec := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.log"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, func(c *Config) { c.Dir = dir }, nil)
	waitState(t, hs, "j9f0e1d2c3b4a5968", StateDone)
}
