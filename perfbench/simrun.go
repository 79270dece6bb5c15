package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"ptmc/internal/cpu"
	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// mix1Config is the canonical ptmcsim run: the 8-core Table I system on
// mix1 under Dynamic-PTMC at the default horizon.
func mix1Config(seed int64) sim.Config {
	cfg := sim.Default()
	cfg.Workload = "mix1"
	cfg.Scheme = sim.SchemeDynamicPTMC
	cfg.Seed = seed
	return cfg
}

// lowMLPConfig is one pointer-chasing core with an 8-entry ROB: a single
// outstanding miss blocks the window, so IPC is about 0.1 and nine in ten
// simulated cycles are idle. Read-only, so no writeback is ever compressed.
func lowMLPConfig(seed int64) sim.Config {
	cfg := sim.Default()
	cfg.Custom = lowMLPWorkload()
	cfg.Scheme = sim.SchemeDynamicPTMC
	cfg.Cores = 1
	cfg.Core = cpu.Config{ROB: 8, FetchWidth: 8, RetireWidth: 8}
	cfg.WarmupInstr = 700_000
	cfg.MeasureInstr = 6_000_000
	cfg.Seed = seed
	return cfg
}

// lowMLPWorkload: frequent memory instructions with no spatial locality
// over a footprint four times the LLC, so nearly every load is a full
// DRAM round trip.
func lowMLPWorkload() *workload.Workload {
	return &workload.Workload{
		Name:           "lowmlp",
		Suite:          "micro",
		FootprintBytes: 32 << 20,
		MemFrac:        0.40,
		WriteFrac:      0,
		SeqProb:        0,
		SeqRun:         2,
		HotFrac:        0,
		HotProb:        0,
		Mix: workload.ValueMix{
			{Kind: workload.KindZero, Weight: 70},
			{Kind: workload.KindSmallInt, Weight: 20},
			{Kind: workload.KindPointer, Weight: 10},
		},
	}
}

// totalInstr is the number of instructions cfg simulates, warmup
// included, summed over cores.
func totalInstr(cfg sim.Config) int64 {
	return int64(cfg.Cores) * (cfg.WarmupInstr + cfg.MeasureInstr)
}

// checkResult applies the correctness rules every simulated result must
// meet, whatever its seed.
func checkResult(cfg sim.Config, r *sim.Result) error {
	switch {
	case r.Mem.IntegrityErrs > 0:
		return fmt.Errorf("%d integrity errors", r.Mem.IntegrityErrs)
	case r.Mem.Degradations() > 0:
		return fmt.Errorf("%d degradations", r.Mem.Degradations())
	case r.Instructions != int64(cfg.Cores)*cfg.MeasureInstr:
		return fmt.Errorf("retired %d instructions, want %d",
			r.Instructions, int64(cfg.Cores)*cfg.MeasureInstr)
	}
	return nil
}

// resultDigest is the sha256 of a Result's canonical JSON encoding.
func resultDigest(r *sim.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// setupReps is how many times a run times set-up; setup_s is the median.
// Set-up is timed in process CPU seconds: it takes milliseconds, and at
// that scale wall time on a shared virtual machine mostly measures when
// the hypervisor ran the VM (see netWall for the longer intervals).
const setupReps = 7

// freshHeap returns the heap to the OS so each repetition starts from the
// memory state of a new process. Never timed.
func freshHeap() { debug.FreeOSMemory() }

// simRep is one timed simulation: set-up plus run.
type simRep struct {
	setupS, wallS, cpuS float64 // setupS is CPU seconds
	netS                float64 // wallS net of CPU steal (see netWall)
	res                 *sim.Result
	times               []*sourceTimes // traced repetitions only
	prof                []byte         // traced repetitions only
}

// runOnce builds and runs cfg, timing set-up and the whole run. A traced
// repetition feeds the simulator timed sources and records a CPU profile.
func runOnce(cfg sim.Config, traced bool) (*simRep, error) {
	rep := &simRep{}
	var prof bytes.Buffer
	freshHeap()
	if traced {
		var err error
		if cfg, rep.times, err = withTimedSources(cfg); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	c0, st0 := cpuSeconds(), stealSeconds()
	t0 := time.Now()
	s, err := sim.New(cfg)
	rep.setupS = cpuSeconds() - c0
	if err == nil {
		rep.res, err = s.Run()
	}
	rep.wallS = time.Since(t0).Seconds()
	rep.cpuS = cpuSeconds() - c0
	rep.netS = netWall(rep.wallS, rep.cpuS, stealSeconds()-st0)
	if traced {
		pprof.StopCPUProfile()
		rep.prof = prof.Bytes()
	}
	return rep, err
}

// runSimWorkload measures one simulator workload for o.seconds: whole
// repetitions of the same configuration until the time is spent, each
// checked against the rules, the first repetition's digest and the
// golden digest. The traced run alternates untraced and traced
// repetitions, so the tracing overhead is measured in the same process.
func runSimWorkload(name string, cfg sim.Config, o options) (*report, error) {
	rp := newReport()
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		freshHeap()
		c0 := cpuSeconds()
		if _, err := sim.New(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}

	want := o.golden.digest(name, o.seed)
	var first string
	var walls, rates, cpus, tracedWalls []float64
	var last *simRep
	weights := layerWeights{}
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		if i >= 1 && time.Since(start).Seconds() >= o.seconds && (!o.trace || i >= 2) {
			break
		}
		rp.attempted++
		rep, err := runOnce(cfg, traced)
		if err != nil {
			rp.fail("%s rep %d: %v", name, i, err)
			continue
		}
		if err := checkResult(cfg, rep.res); err != nil {
			rp.fail("%s rep %d: %v", name, i, err)
			continue
		}
		d, err := resultDigest(rep.res)
		if err != nil {
			return nil, err
		}
		if first == "" {
			first = d
			rp.digest = d
		}
		switch {
		case d != first:
			rp.fail("%s rep %d: digest %s differs from the first repetition's %s", name, i, d, first)
			continue
		case want != "" && d != want:
			rp.fail("%s seed %d: digest %s, golden %s", name, o.seed, d, want)
			continue
		}
		fmt.Printf("rep %d traced=%t setup_cpu_s=%.6f wall_s=%.4f net_s=%.4f cpu_s=%.4f\n",
			i, traced, rep.setupS, rep.wallS, rep.netS, rep.cpuS)
		if traced {
			tracedWalls = append(tracedWalls, rep.netS)
			if err := weights.addProfile(rep.prof); err != nil {
				return nil, err
			}
			last = rep
			continue
		}
		minst := float64(totalInstr(cfg)) / 1e6
		setups = append(setups, rep.setupS)
		walls = append(walls, rep.netS)
		rates = append(rates, minst/rep.netS)
		cpus = append(cpus, rep.cpuS/minst)
	}
	if len(walls) == 0 || (o.trace && last == nil) {
		return rp, nil // every repetition failed; reported as such
	}

	rp.set("setup_s", median(setups))
	rp.set("minst_per_s", median(rates))
	rp.set("cpu_s_per_minst", median(cpus))
	rp.set("peak_rss_mb", peakRSSMB())
	if !o.trace {
		return rp, nil
	}

	var src sourceTotals
	src.add(last.times)
	rp.setSimLayers([]*sim.Result{last.res}, []int64{totalInstr(cfg)}, src, last.netS)
	rp.setShares(weights)
	rp.set("trace.overhead", median(tracedWalls)/median(walls))
	return rp, nil
}
