package sim

// The test oracle: the reference implementations the production engine
// (run, initPage, archLine) is checked against byte for byte. They are the
// plainest correct versions of the same behavior — every cycle executed,
// every first-touch page synthesized eagerly into both stores through the
// controller's full InitLine path, every DRAM channel scanned on every bus
// tick — and they exist only here, selected through the Simulator's
// unexported test hooks.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ptmc/internal/mem"
	"ptmc/internal/vm"
)

// newOracle assembles a simulator that runs the reference implementations
// instead of the engine.
func newOracle(cfg Config) (*Simulator, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.usePerCycleLoop()
	s.useEagerInit()
	return s, nil
}

// usePerCycleLoop swaps in the reference run loop and the DRAM's
// every-channel scan; first-touch init is left as it is.
func (s *Simulator) usePerCycleLoop() {
	s.loopHook = s.runPerCycle
	s.ctrl.DRAM().SetEngineMode(false)
}

// useEagerInit swaps in the reference first-touch init; the run loop is
// left as it is.
func (s *Simulator) useEagerInit() {
	s.initHook = s.initPageEager
	s.arch.SetLazyFill(nil)
}

// initPageEager synthesizes a first-touch page line by line into the
// architectural store and hands each line to the controller's InitLine.
func (s *Simulator) initPageEager(coreID int, pageBase mem.LineAddr, vlineBase uint64) {
	buf := make([]byte, mem.LineSize)
	for i := uint64(0); i < vm.PageLines; i++ {
		s.streams[coreID].FillLine(vlineBase+i, buf)
		s.arch.Write(pageBase+mem.LineAddr(i), buf)
		s.ctrl.InitLine(pageBase + mem.LineAddr(i))
	}
}

// runPerCycle is the reference run loop: same termination conditions,
// ctx polling and per-cycle work order as run, one cycle per iteration.
func (s *Simulator) runPerCycle(ctx context.Context, limit, maxCycles int64) error {
	for i := range s.cores {
		s.cores[i].ResetWindow(limit)
	}
	s.windowStart = s.now
	deadline := s.now + maxCycles
	for iter := 0; ; iter++ {
		allDone := true
		for _, c := range s.cores {
			if !c.Done() {
				allDone = false
			}
		}
		if allDone {
			return nil
		}
		if s.fatal != nil {
			return s.fatal
		}
		if s.now >= deadline {
			return fmt.Errorf("sim: exceeded %d cycles without finishing", maxCycles)
		}
		if iter&4095 == 0 && ctx.Err() != nil {
			return fmt.Errorf("sim: interrupted at cycle %d: %w", s.now, ctx.Err())
		}
		s.now++
		for _, c := range s.cores {
			c.Cycle(s.now)
		}
		if s.now%int64(s.cfg.DRAM.BusRatio) == 0 {
			s.ctrl.Tick(s.now)
		}
		if s.reg != nil && s.now%s.cfg.MetricsInterval == 0 {
			s.reg.Snapshot(s.now)
		}
	}
}

// newEither assembles cfg on the oracle or on the engine.
func newEither(t *testing.T, cfg Config, oracle bool) *Simulator {
	t.Helper()
	build := New
	if oracle {
		build = newOracle
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runEither runs cfg on the oracle or on the engine.
func runEither(t *testing.T, cfg Config, oracle bool) *Result {
	t.Helper()
	r, err := newEither(t, cfg, oracle).Run()
	if err != nil {
		t.Fatalf("oracle=%t: %v", oracle, err)
	}
	return r
}

// diffResults reports how r diverges from ref, if it does.
func diffResults(t *testing.T, what string, ref, r *Result) {
	t.Helper()
	if reflect.DeepEqual(ref, r) {
		return
	}
	t.Errorf("%s diverges", what)
	if ref.Cycles != r.Cycles {
		t.Errorf("  end cycle %d vs %d", ref.Cycles, r.Cycles)
	}
	if ref.String() != r.String() {
		t.Errorf("  report:\n  %s\n  vs\n  %s", ref.String(), r.String())
	}
	if !reflect.DeepEqual(ref.DRAM, r.DRAM) {
		t.Errorf("  DRAM stats: %+v\n  vs %+v", ref.DRAM, r.DRAM)
	}
	if !reflect.DeepEqual(ref.Mem, r.Mem) {
		t.Errorf("  Mem stats: %+v\n  vs %+v", ref.Mem, r.Mem)
	}
	if !reflect.DeepEqual(ref.Metrics, r.Metrics) {
		t.Errorf("  obs metrics snapshots diverge")
	}
}

// checkOracleMatrix runs cfg on the oracle and on the engine, each twice,
// and requires all four Results — cycles, per-core IPC, every cache,
// controller and DRAM counter, energy, and the metrics snapshot series —
// to be reflect.DeepEqual. Oracle-vs-engine catches divergence between
// the implementations; run-twice catches nondeterminism (map iteration,
// uninitialized state) that would diverge identically in both.
func checkOracleMatrix(t *testing.T, cfg Config) {
	t.Helper()
	ref := runEither(t, cfg, true)
	for _, v := range []struct {
		name   string
		oracle bool
	}{{"oracle rerun", true}, {"engine", false}, {"engine rerun", false}} {
		diffResults(t, v.name+" vs the oracle", ref, runEither(t, cfg, v.oracle))
	}
}

// TestDeterminismMatrix is the engine's core invariant: the cycle-skipping
// loop with lazy, in-place first-touch init is purely an implementation of
// the per-cycle reference. Every scheme is covered, plus the heterogeneous
// mix1, whose distinct per-core streams would expose any first-touch
// ordering leak (marker collisions, lazy synthesis origins).
func TestDeterminismMatrix(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			cfg := Default()
			cfg.Workload = "lbm06"
			cfg.Scheme = scheme
			cfg.WarmupInstr = 20_000
			cfg.MeasureInstr = 20_000
			cfg.MetricsInterval = 25_000
			checkOracleMatrix(t, cfg)
		})
	}
	t.Run("mix1", func(t *testing.T) {
		cfg := Default()
		cfg.Workload = "mix1"
		cfg.Scheme = SchemeDynamicPTMC
		cfg.WarmupInstr = 15_000
		cfg.MeasureInstr = 15_000
		cfg.MetricsInterval = 25_000
		checkOracleMatrix(t, cfg)
	})
}

// runWith builds cfg on the engine, applies swap (one half of the oracle),
// and runs it.
func runWith(t *testing.T, cfg Config, swap func(*Simulator)) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if swap != nil {
		swap(s)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// isolationCfg is the short lbm06 run the isolation tests below use.
func isolationCfg(scheme string) Config {
	cfg := Default()
	cfg.Workload = "lbm06"
	cfg.Scheme = scheme
	cfg.WarmupInstr = 10_000
	cfg.MeasureInstr = 10_000
	cfg.MetricsInterval = 25_000
	return cfg
}

// TestEventDeterminismMatrix isolates the run loop: with first-touch init
// held at the engine's lazy path, the cycle-skipping (event-driven) loop
// and the per-cycle reference loop must give the same Result for every
// scheme, each run twice. TestDeterminismMatrix swaps both halves at once;
// this test and TestShardDeterminismResults say which half diverged.
func TestEventDeterminismMatrix(t *testing.T) {
	perCycle := (*Simulator).usePerCycleLoop
	for _, scheme := range Schemes() {
		cfg := isolationCfg(scheme)
		ref := runWith(t, cfg, perCycle)
		diffResults(t, scheme+": per-cycle loop rerun", ref, runWith(t, cfg, perCycle))
		diffResults(t, scheme+": cycle-skipping loop", ref, runWith(t, cfg, nil))
		diffResults(t, scheme+": cycle-skipping loop rerun", ref, runWith(t, cfg, nil))
	}
}

// TestShardDeterminismResults isolates first-touch init: with the engine's
// run loop held, lazy direct-to-image init (initPage, archLine) and the
// eager reference (FillLine, arch.Write, InitLine per line) must give the
// same Result for every scheme. The name dates from when first-touch init
// was fanned out over shards.
func TestShardDeterminismResults(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg := isolationCfg(scheme)
		ref := runWith(t, cfg, (*Simulator).useEagerInit)
		diffResults(t, scheme+": lazy first-touch init", ref, runWith(t, cfg, nil))
	}
}

// TestEventMaxCyclesConsistent: jumps are clamped at the deadline, so an
// engine run that exhausts its cycle budget fails with the same error, at
// the same cycle, as the per-cycle oracle.
func TestEventMaxCyclesConsistent(t *testing.T) {
	run := func(oracle bool) (int64, error) {
		cfg := quickCfg("lbm06", SchemeUncompressed)
		cfg.WarmupInstr = 0
		s := newEither(t, cfg, oracle)
		loop := s.run
		if oracle {
			loop = s.runPerCycle
		}
		// Far too small a budget to retire anything meaningful.
		rerr := loop(context.Background(), cfg.MeasureInstr, 5_000)
		return s.now, rerr
	}
	oracleNow, oracleErr := run(true)
	engineNow, engineErr := run(false)
	if oracleErr == nil || engineErr == nil {
		t.Fatalf("expected both loops to exhaust the budget; oracle=%v engine=%v", oracleErr, engineErr)
	}
	if oracleErr.Error() != engineErr.Error() {
		t.Errorf("error text diverges:\n  oracle: %v\n  engine: %v", oracleErr, engineErr)
	}
	if oracleNow != engineNow {
		t.Errorf("abort cycle diverges: oracle %d vs engine %d", oracleNow, engineNow)
	}
}
