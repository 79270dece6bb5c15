package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ptmc/internal/server"
	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// TestTracedResultIdentical proves that the traced run's instruments — the
// timed sources, including their FillLineInit forwarding, and the CPU
// profiler — change only host time: the Result is DeepEqual to an
// untraced run's. The horizon is shortened to keep the test quick; the
// benchmark itself checks the same at full horizon on every traced run.
func TestTracedResultIdentical(t *testing.T) {
	for name, cfg := range map[string]sim.Config{"mix1": mix1Config(3), "lowmlp": lowMLPConfig(3)} {
		cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 40_000
		plain, err := runOnce(cfg, false)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		traced, err := runOnce(cfg, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !reflect.DeepEqual(plain.res, traced.res) {
			t.Errorf("%s: traced Result differs from untraced", name)
		}
		var src sourceTotals
		src.add(traced.times)
		if src.fillLines == 0 || src.nextCalls == 0 || len(traced.prof) == 0 {
			t.Errorf("%s: traced run recorded nothing (%+v, %d profile bytes)", name, src, len(traced.prof))
		}
		if err := checkResult(cfg, traced.res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTimedSourceForwardsFillLineInit(t *testing.T) {
	w, err := workload.Lookup("lbm06")
	if err != nil {
		t.Fatal(err)
	}
	st := new(sourceTimes)
	src := wrap(w.NewStream(1), st)
	fi, ok := src.(fillIniter)
	if !ok {
		t.Fatal("wrapper of a workload.Stream must implement FillLineInit")
	}
	a, b := make([]byte, 64), make([]byte, 64)
	fi.FillLineInit(7, a)
	w.NewStream(1).FillLineInit(7, b)
	if !bytes.Equal(a, b) || st.fillLines.Load() != 1 {
		t.Error("FillLineInit not forwarded and timed")
	}
	if _, ok := wrap(plainSource{}, st).(fillIniter); ok {
		t.Error("wrapper must not add FillLineInit to a source without it")
	}
}

type plainSource struct{}

func (plainSource) Next() workload.Op         { return workload.Op{} }
func (plainSource) FillLine(uint64, []byte)   {}
func (plainSource) MutateLine(uint64, []byte) {}

// TestSweepInstructions pins the sweep's minst_per_s numerator: cores ×
// (warmup + measure) per done point, summed over points, using the
// normalized spec the service records in the artifact.
func TestSweepInstructions(t *testing.T) {
	spec := sweepSpec(defaultSeed)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	art := &server.SweepArtifact{Spec: spec}
	for i := 0; i < 12; i++ {
		art.Points = append(art.Points, server.SweepPoint{State: server.StateDone})
	}
	per := int64(sweepCores) * (sweepWarmup + sweepMeasure)
	if got := sweepInstructions(art); got != 12*per {
		t.Errorf("12 done points: %d instructions, want %d", got, 12*per)
	}
	art.Points[3].State = server.StateFailed
	if got := sweepInstructions(art); got != 11*per {
		t.Errorf("one failed point: %d instructions, want %d", got, 11*per)
	}
	if n := len(spec.Workloads) * len(spec.Schemes) * len(spec.Seeds); n != 12 {
		t.Errorf("sweep has %d points, want 12", n)
	}
	// Interactive seeds never repeat within a run, or the service would
	// answer a job from its result cache.
	seen := map[string]bool{}
	for k := 0; k < 10_000; k++ {
		s := interactiveSpec(defaultSeed, k)
		key := s.Key()
		if seen[key] {
			t.Fatalf("interactive job %d repeats a key", k)
		}
		seen[key] = true
	}
}

func TestGoldenCommitted(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if g.digest(name, defaultSeed) == "" {
			t.Errorf("no golden digest for %s at seed %d", name, defaultSeed)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	host := hostBlock{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0", OSArch: "linux/amd64"}
	run := func(h hostBlock, rate, setup float64) *savedRun {
		return &savedRun{host: h, metrics: map[string]metricValue{
			"minst_per_s": {rate, "Minst/s"}, "setup_s": {setup, "s"},
		}}
	}
	bounds := map[string]bound{
		"minst_per_s": {Name: "minst_per_s", Better: "higher", Bound: 0.1},
		"setup_s":     {Name: "setup_s", Better: "lower", Bound: 0.25},
	}
	var out bytes.Buffer
	compareRuns(&out, run(host, 1.0, 1.0), run(host, 0.85, 1.2), bounds)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], "worse") || !strings.HasSuffix(lines[1], "ok") {
		t.Errorf("same host:\n%s", out.String())
	}
	other := host
	other.NProc = 1
	out.Reset()
	compareRuns(&out, run(host, 1.0, 1.0), run(other, 0.5, 1.0), bounds)
	if !strings.HasPrefix(out.String(), "different host") || strings.Contains(out.String(), "worse") {
		t.Errorf("different host must give no verdict:\n%s", out.String())
	}
}

func TestParseSaved(t *testing.T) {
	text := `host {"nproc":2,"gomaxprocs":2,"cpu_model":"x","go_version":"go1.24.0","os_arch":"linux/amd64"}
metric setup_s 0.1 s
{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.1,"unit":"s"}}}
`
	s, err := parseSaved(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s.host.NProc != 2 || s.metrics["setup_s"].Value != 0.1 {
		t.Errorf("parsed %+v", s)
	}
}

// TestSweepRep runs one traced sweep repetition against a real in-process
// service: every job and the sweep must succeed and be accounted.
func TestSweepRep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole sweep")
	}
	if raceDetector {
		t.Skip("simulations under -race are too slow for the fixed interactive rate: the queue would refuse jobs")
	}
	rp := newReport()
	rep, err := runSweepRep(options{seed: defaultSeed, tmpDir: t.TempDir()}, true, rp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rp.failures {
		t.Error(f)
	}
	want, _ := loadGolden()
	if rep.digest != want.digest("sweep", defaultSeed) {
		t.Errorf("sweep digest %s, golden %s", rep.digest, want.digest("sweep", defaultSeed))
	}
	if n := len(rep.timer.results); n != 12+len(rep.latencies) {
		t.Errorf("%d simulations for 12 points and %d interactive jobs", n, len(rep.latencies))
	}
	if rep.sweepInstr != 12*sweepCores*(sweepWarmup+sweepMeasure) || rep.busyS <= 0 || len(rep.prof) == 0 {
		t.Errorf("repetition not measured: %+v", rep)
	}
}
