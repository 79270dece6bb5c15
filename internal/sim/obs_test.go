package sim

import (
	"bytes"
	"context"
	"testing"

	"ptmc/internal/obs"
)

func obsCfg(scheme string) Config {
	cfg := quickCfg("lbm06", scheme)
	cfg.MetricsInterval = 5_000
	cfg.Trace = true
	return cfg
}

// TestObservabilityCapture checks that an instrumented run actually
// produces the artifacts: a multi-window metrics series covering the
// registered stats, and at least one trace event for each kind a demand
// workload must generate. A plain run must produce neither.
func TestObservabilityCapture(t *testing.T) {
	r, err := Run(obsCfg(SchemeDynamicPTMC))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil || len(r.Metrics.Series) == 0 || len(r.Metrics.Snapshots) < 2 {
		t.Fatalf("metrics missing or too small: %+v", r.Metrics)
	}
	for i := 1; i < len(r.Metrics.Snapshots); i++ {
		if r.Metrics.Snapshots[i].Cycle <= r.Metrics.Snapshots[i-1].Cycle {
			t.Fatalf("snapshot cycles not increasing at window %d", i)
		}
	}
	// The final window's cumulative values must agree with the Result's
	// own counters (same underlying stats, snapshotted at collect time).
	last := r.Metrics.Snapshots[len(r.Metrics.Snapshots)-1]
	for i, s := range r.Metrics.Series {
		if s.Name == "mem.demand_reads" && last.Values[i] != r.Mem.DemandReads {
			t.Errorf("mem.demand_reads final window = %d, Result says %d",
				last.Values[i], r.Mem.DemandReads)
		}
	}
	counts := obs.CountByKind(r.TraceEvents)
	for _, k := range []obs.Kind{obs.KindDRAMRead, obs.KindDRAMWrite, obs.KindFill, obs.KindEvict} {
		if counts[k] == 0 {
			t.Errorf("no %s events in %d-event trace", k, len(r.TraceEvents))
		}
	}

	plain, err := Run(quickCfg("lbm06", SchemeDynamicPTMC))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil || plain.TraceEvents != nil {
		t.Error("uninstrumented run produced observability output")
	}
}

// TestTraceMatchesBurstAccounting holds every scheme's trace to its own
// stats: each DRAM burst the controller accounts is one dram_read or
// dram_write event, so a scheme cannot issue traffic the trace misses.
func TestTraceMatchesBurstAccounting(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg := quickCfg("lbm06", scheme)
		cfg.Trace = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.TraceDropped != 0 {
			t.Fatalf("%s: %d trace events dropped; raise TraceCapacity", scheme, r.TraceDropped)
		}
		counts := obs.CountByKind(r.TraceEvents)
		if got, want := uint64(counts[obs.KindDRAMRead]), r.Mem.TotalReads(); got != want {
			t.Errorf("%s: %d dram_read events, %d read bursts accounted", scheme, got, want)
		}
		if got, want := uint64(counts[obs.KindDRAMWrite]), r.Mem.TotalWrites(); got != want {
			t.Errorf("%s: %d dram_write events, %d write bursts accounted", scheme, got, want)
		}
	}
}

// TestObservabilityDeterministicUnderParallel is the contract the per-run
// registry/tracer design exists for: the metrics JSON and the trace event
// stream of a scheme must be byte-identical whether the run executed alone
// or raced other schemes inside CompareParallel.
func TestObservabilityDeterministicUnderParallel(t *testing.T) {
	cfg := obsCfg(SchemeDynamicPTMC)
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := CompareParallel(context.Background(), 3, cfg,
		SchemeUncompressed, SchemePTMC, SchemeDynamicPTMC)
	if err != nil {
		t.Fatal(err)
	}
	parallel := rs[SchemeDynamicPTMC]

	var sj, pj bytes.Buffer
	if err := serial.Metrics.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Metrics.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Error("metrics JSON differs between serial and parallel runs")
	}

	if len(serial.TraceEvents) != len(parallel.TraceEvents) {
		t.Fatalf("trace length differs: serial %d, parallel %d",
			len(serial.TraceEvents), len(parallel.TraceEvents))
	}
	for i := range serial.TraceEvents {
		if serial.TraceEvents[i] != parallel.TraceEvents[i] {
			t.Fatalf("trace diverges at event %d: %+v vs %+v",
				i, serial.TraceEvents[i], parallel.TraceEvents[i])
		}
	}
	if serial.TraceDropped != parallel.TraceDropped {
		t.Errorf("dropped counts differ: %d vs %d", serial.TraceDropped, parallel.TraceDropped)
	}
}

// TestFaultCampaignObservability checks the campaign-side integration:
// per-trial metrics windows and a trace that includes the campaign-only
// event kinds (scrubs fire every trial; evictions are constant).
func TestFaultCampaignObservability(t *testing.T) {
	rep, err := RunFaultCampaign(context.Background(), FaultConfig{
		Trials: 8, Trace: true, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil || len(rep.Metrics.Snapshots) == 0 {
		t.Fatal("campaign produced no metrics windows")
	}
	if got := len(rep.Metrics.Snapshots); got > len(rep.Trials)+1 {
		t.Errorf("%d metrics windows for %d adjudicated trials", got, len(rep.Trials))
	}
	counts := obs.CountByKind(rep.TraceEvents)
	for _, k := range []obs.Kind{obs.KindDRAMRead, obs.KindFill, obs.KindEvict, obs.KindScrub} {
		if counts[k] == 0 {
			t.Errorf("no %s events in campaign trace", k)
		}
	}
	if counts[obs.KindScrub] != len(rep.Trials) {
		t.Errorf("scrub events = %d, want one per adjudicated trial (%d)",
			counts[obs.KindScrub], len(rep.Trials))
	}
}
