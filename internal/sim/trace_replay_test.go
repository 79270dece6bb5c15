package sim

import (
	"bytes"
	"reflect"
	"testing"

	"ptmc/internal/trace"
	"ptmc/internal/workload"
)

// TestTraceReplayThroughSimulator records a workload's access stream, then
// replays it through the full simulator: the replay must be deterministic,
// integrity-clean under PTMC, and identical on the engine and the oracle.
// A replay source has no FillLineInit, so this also covers the engine's
// lazy first-touch synthesis through plain FillLine.
func TestTraceReplayThroughSimulator(t *testing.T) {
	wl, err := workload.Lookup("libquantum06")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, wl.Mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(wl.NewStream(5), w)
	for i := 0; i < 60_000; i++ {
		cap.Next()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	run := func(oracle bool) *Result {
		cfg := Default()
		cfg.Workload = "trace-test"
		cfg.Scheme = SchemePTMC
		cfg.Cores = 2
		cfg.L3Bytes = 1 << 20
		cfg.WarmupInstr = 20_000
		cfg.MeasureInstr = 50_000
		cfg.Sources = func(core int, seed int64) (workload.Source, error) {
			r, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			rep, err := trace.NewReplay(r)
			if err != nil {
				return nil, err
			}
			for i := 0; i < core*rep.Len()/2; i++ {
				rep.Next() // stagger cores
			}
			return rep, nil
		}
		return runEither(t, cfg, oracle)
	}

	r1, r2 := run(false), run(false)
	if r1.Mem.IntegrityErrs != 0 {
		t.Fatalf("integrity errors: %d", r1.Mem.IntegrityErrs)
	}
	if r1.Cycles != r2.Cycles || r1.DRAM.Reads != r2.DRAM.Reads {
		t.Error("trace replay must be deterministic")
	}
	if r1.DRAM.Reads == 0 {
		t.Error("replay produced no memory traffic")
	}
	if ref := run(true); !reflect.DeepEqual(ref, r1) {
		t.Errorf("replay diverges between oracle and engine:\n%s\nvs\n%s", ref, r1)
	}
}
