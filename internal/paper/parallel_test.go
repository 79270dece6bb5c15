package paper

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ptmc/internal/sim"
)

// renderAll renders every artifact in paperbench order on one runner with
// the given worker count, progress lines included, and returns the bytes.
func renderAll(t *testing.T, parallel int) []byte {
	t.Helper()
	opts := tinyOptions()
	opts.Silent = false
	var buf bytes.Buffer
	r := NewRunner(opts, &buf, parallel)
	for _, artifact := range []struct {
		name string
		run  func() error
	}{
		{"TableII", r.TableII},
		{"Figure4", r.Figure4},
		{"Figure5", r.Figure5},
		{"Figure6", r.Figure6},
		{"Figure9", r.Figure9},
		{"Figure12", r.Figure12},
		{"Figure14", r.Figure14},
		{"Figure15", r.Figure15},
		{"Figure17", r.Figure17},
		{"Figure18", r.Figure18},
		{"TableIV", r.TableIV},
		{"TableV", r.TableV},
		{"TableVI", r.TableVI},
		{"RelatedWork", r.RelatedWork},
		{"LLPAblation", func() error { return r.LLPAblation([]int{64, 256, 512, 2048}) }},
	} {
		if err := artifact.run(); err != nil {
			t.Fatalf("%s at %d workers: %v", artifact.name, parallel, err)
		}
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the byte-identity guarantee: every simulated
// artifact rendered with 1 worker and with 8 workers must produce
// identical bytes, and a CompareParallel sweep must produce deeply equal
// Result stats.
func TestParallelDeterminism(t *testing.T) {
	serial, wide := renderAll(t, 1), renderAll(t, 8)
	if !bytes.Equal(serial, wide) {
		t.Errorf("-parallel 1 and -parallel 8 render different bytes:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, wide)
	}

	cfg := sim.Default()
	cfg.Workload = "libquantum06"
	cfg.Cores = 2
	cfg.WarmupInstr = 15_000
	cfg.MeasureInstr = 40_000
	cfg.Seed = 1
	cfg.L3Bytes = 1 << 20
	schemes := []string{sim.SchemeUncompressed, sim.SchemeTableTMC, sim.SchemePTMC}
	serialRes, err := sim.CompareParallel(context.Background(), 1, cfg, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	wideRes, err := sim.CompareParallel(context.Background(), 8, cfg, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range schemes {
		if !reflect.DeepEqual(serialRes[sch], wideRes[sch]) {
			t.Errorf("CompareParallel %s: stats differ between 1 and 8 workers\nserial: %+v\nwide:   %+v",
				sch, serialRes[sch], wideRes[sch])
		}
	}
}

// TestRunProgressOrder checks the non-Silent path: progress lines print in
// declaration order even when completions race.
func TestRunProgressOrder(t *testing.T) {
	opts := tinyOptions()
	opts.Silent = false
	run := func(parallel int) []byte {
		var buf bytes.Buffer
		r := NewRunner(opts, &buf, parallel)
		if err := r.Run(jobsFor([]string{"libquantum06", "pr-twitter"},
			sim.SchemeUncompressed, sim.SchemeTableTMC)...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	wide := run(8)
	if !bytes.Equal(serial, wide) {
		t.Errorf("progress lines differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, wide)
	}
}

// TestRunErrorDeterministic checks that Run reports the earliest-declared
// failure whichever job fails first on the pool.
func TestRunErrorDeterministic(t *testing.T) {
	jobs := jobsFor([]string{"nope-a", "nope-b"}, sim.SchemeUncompressed)
	for _, parallel := range []int{1, 8} {
		for i := 0; i < 20; i++ {
			err := NewRunner(tinyOptions(), &bytes.Buffer{}, parallel).Run(jobs...)
			if err == nil || !strings.Contains(err.Error(), "nope-a") {
				t.Fatalf("%d workers, run %d: err = %v, want the nope-a failure", parallel, i, err)
			}
		}
	}
}
