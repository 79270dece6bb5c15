package sim

import (
	"testing"

	"ptmc/internal/core"
)

// quickCfg returns a configuration small enough for unit tests: 2 cores,
// modest caches, short horizon.
func quickCfg(workload, scheme string) Config {
	cfg := Default()
	cfg.Workload = workload
	cfg.Scheme = scheme
	cfg.Cores = 2
	cfg.L3Bytes = 1 << 20
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 60_000
	return cfg
}

func runQuick(t *testing.T, workload, scheme string) *Result {
	t.Helper()
	r, err := Run(quickCfg(workload, scheme))
	if err != nil {
		t.Fatalf("%s/%s: %v", workload, scheme, err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err == nil {
		t.Error("empty workload should fail")
	}
	cfg.Workload = "mcf06"
	cfg.Scheme = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown scheme should fail")
	}
	// Cache entries record their core in a uint8, so a 257th core would
	// alias core 0 and Dynamic-PTMC would charge its costs to the wrong core.
	cfg = Default()
	cfg.Workload = "mcf06"
	cfg.Cores = MaxCores
	if err := cfg.Validate(); err != nil {
		t.Errorf("%d cores rejected: %v", MaxCores, err)
	}
	cfg.Cores = MaxCores + 1
	if err := cfg.Validate(); err == nil {
		t.Errorf("%d cores accepted", MaxCores+1)
	}
	cfg = Default()
	cfg.Workload = "nope"
	if _, err := New(cfg); err == nil {
		t.Error("unknown workload should fail at New")
	}
	cfg = Default()
	cfg.Workload = "mix1"
	cfg.Cores = 2
	if _, err := New(cfg); err == nil {
		t.Error("8-part mix on 2 cores should fail")
	}
}

func TestEverySchemeRunsCleanly(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			r := runQuick(t, "libquantum06", scheme)
			if r.Mem.IntegrityErrs != 0 {
				t.Fatalf("integrity errors: %d", r.Mem.IntegrityErrs)
			}
			if r.IPC() <= 0 {
				t.Fatal("non-positive IPC")
			}
			if r.Instructions != int64(r.Cores)*60_000 {
				t.Fatalf("instructions = %d", r.Instructions)
			}
			if r.DRAM.Reads == 0 {
				t.Fatal("no DRAM traffic measured")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	r1 := runQuick(t, "mcf06", SchemeDynamicPTMC)
	r2 := runQuick(t, "mcf06", SchemeDynamicPTMC)
	if r1.Cycles != r2.Cycles || r1.DRAM.Reads != r2.DRAM.Reads ||
		r1.Mem.Total() != r2.Mem.Total() {
		t.Errorf("same seed, different outcomes:\n%v\n%v", r1, r2)
	}
	cfg := quickCfg("mcf06", SchemeDynamicPTMC)
	cfg.Seed = 99
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cycles == r1.Cycles && r3.DRAM.Reads == r1.DRAM.Reads {
		t.Log("warning: different seed produced identical run (unlikely but possible)")
	}
}

func TestCompressibleWorkloadGainsBandwidth(t *testing.T) {
	// On a compressible streaming workload in steady state (sweeps
	// re-reading previously compressed data), PTMC must cut demand DRAM
	// reads versus uncompressed and deliver free fills.
	base, err := Run(steadyCfg(SchemeUncompressed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(steadyCfg(SchemePTMC))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.FreeInstalls == 0 {
		t.Fatal("no free installs on a compressible streaming workload")
	}
	if p.Mem.DemandReads >= base.Mem.DemandReads {
		t.Errorf("PTMC demand reads %d >= baseline %d",
			p.Mem.DemandReads, base.Mem.DemandReads)
	}
	if p.Mem.Groups2+p.Mem.Groups4 == 0 {
		t.Error("no compressed units formed")
	}
	if ws := p.WeightedSpeedupOver(base); ws <= 1.05 {
		t.Errorf("PTMC speedup = %.3f, want > 1.05 in steady state", ws)
	}
}

func TestIdealUpperBoundsPTMC(t *testing.T) {
	ideal, err := Run(steadyCfg(SchemeIdeal))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(steadyCfg(SchemePTMC))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(steadyCfg(SchemeUncompressed))
	if err != nil {
		t.Fatal(err)
	}
	wsIdeal := ideal.WeightedSpeedupOver(base)
	wsPTMC := p.WeightedSpeedupOver(base)
	if wsIdeal < wsPTMC*0.95 {
		t.Errorf("ideal (%.3f) should be at least PTMC (%.3f)", wsIdeal, wsPTMC)
	}
	if wsIdeal < 1.0 {
		t.Errorf("ideal TMC should not slow down a compressible workload (%.3f)", wsIdeal)
	}
}

func TestDynamicMatchesStaticWhenCompressionHelps(t *testing.T) {
	p, err := Run(steadyCfg(SchemePTMC))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(steadyCfg(SchemeDynamicPTMC))
	if err != nil {
		t.Fatal(err)
	}
	if d.IPC() < p.IPC()*0.95 {
		t.Errorf("dynamic (%.3f IPC) should keep compression enabled and track static (%.3f IPC)",
			d.IPC(), p.IPC())
	}
}

func TestTableTMCPaysMetadataBandwidth(t *testing.T) {
	r := runQuick(t, "mcf06", SchemeTableTMC)
	if r.Mem.MetadataReads == 0 {
		t.Error("table-TMC on an irregular workload must miss the metadata cache")
	}
	if !r.HasMCache {
		t.Error("metadata hit rate not reported")
	}
	p := runQuick(t, "mcf06", SchemePTMC)
	if p.Mem.MetadataReads != 0 {
		t.Error("PTMC must not touch a metadata table")
	}
	if !p.HasLLP {
		t.Error("LLP accuracy not reported")
	}
}

func TestLLPAccuracyHigh(t *testing.T) {
	// Figure 9: LLP accuracy should be high (~98% in the paper) on SPEC.
	r := runQuick(t, "lbm06", SchemePTMC)
	if r.LLPAccuracy < 0.85 {
		t.Errorf("LLP accuracy = %.3f, want > 0.85", r.LLPAccuracy)
	}
}

func TestDynamicNoHurtOnGraph(t *testing.T) {
	// The headline robustness claim: Dynamic-PTMC must not slow down
	// compression-hostile graph workloads (paper: worst case within 1%).
	base := runQuick(t, "pr-twitter", SchemeUncompressed)
	dyn := runQuick(t, "pr-twitter", SchemeDynamicPTMC)
	ws := dyn.WeightedSpeedupOver(base)
	if ws < 0.97 {
		t.Errorf("Dynamic-PTMC slowed a graph workload to %.3f of baseline", ws)
	}
}

func TestMixRunsAllParts(t *testing.T) {
	cfg := Default()
	cfg.Workload = "mix1"
	cfg.Scheme = SchemeDynamicPTMC
	cfg.WarmupInstr = 5_000
	cfg.MeasureInstr = 20_000
	cfg.L3Bytes = 1 << 20
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCoreIPC) != 8 {
		t.Fatalf("mix should report 8 per-core IPCs, got %d", len(r.PerCoreIPC))
	}
	if r.Mem.IntegrityErrs != 0 {
		t.Fatal("integrity errors in mix run")
	}
}

func TestCompareRunsSchemesOnSameSeed(t *testing.T) {
	cfg := quickCfg("sphinx306", "")
	rs, err := Compare(cfg, SchemeUncompressed, SchemePTMC)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[SchemeUncompressed].Workload != rs[SchemePTMC].Workload {
		t.Error("workload mismatch")
	}
}

func TestMemoryMappedLITMode(t *testing.T) {
	cfg := quickCfg("libquantum06", SchemePTMC)
	cfg.LITMode = core.LITMemoryMapped
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.IntegrityErrs != 0 {
		t.Error("integrity errors under memory-mapped LIT")
	}
}

func TestResultString(t *testing.T) {
	r := runQuick(t, "leela17", SchemeDynamicPTMC)
	s := r.String()
	if s == "" {
		t.Error("empty result string")
	}
}
