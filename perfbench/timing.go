package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// sourceTimes accumulates the host time one core's workload source spends
// answering the simulator. Atomic because an engine may synthesize pages
// from several goroutines.
type sourceTimes struct {
	fillNs, nextNs, mutateNs   atomic.Int64
	fillLines, nextCalls, muts atomic.Int64
}

// timedSource wraps a workload.Source and times every call into it.
type timedSource struct {
	src workload.Source
	t   *sourceTimes
}

func (s *timedSource) Next() workload.Op {
	t0 := time.Now()
	op := s.src.Next()
	s.t.nextNs.Add(int64(time.Since(t0)))
	s.t.nextCalls.Add(1)
	return op
}

func (s *timedSource) FillLine(vline uint64, buf []byte) {
	t0 := time.Now()
	s.src.FillLine(vline, buf)
	s.t.fillNs.Add(int64(time.Since(t0)))
	s.t.fillLines.Add(1)
}

func (s *timedSource) MutateLine(vline uint64, buf []byte) {
	t0 := time.Now()
	s.src.MutateLine(vline, buf)
	s.t.mutateNs.Add(int64(time.Since(t0)))
	s.t.muts.Add(1)
}

// fillIniter is the simulator's optional first-touch fast path on a
// source. The wrapper must keep offering it when the wrapped source does,
// or the engine would take a different path under tracing.
type fillIniter interface {
	FillLineInit(vline uint64, buf []byte)
}

// timedIniter is a timedSource whose source also implements fillIniter.
type timedIniter struct {
	timedSource
	init fillIniter
}

func (s *timedIniter) FillLineInit(vline uint64, buf []byte) {
	t0 := time.Now()
	s.init.FillLineInit(vline, buf)
	s.t.fillNs.Add(int64(time.Since(t0)))
	s.t.fillLines.Add(1)
}

// wrap times src, forwarding fillIniter when src has it.
func wrap(src workload.Source, t *sourceTimes) workload.Source {
	ts := timedSource{src: src, t: t}
	if fi, ok := src.(fillIniter); ok {
		return &timedIniter{timedSource: ts, init: fi}
	}
	return &ts
}

// coreWorkloads resolves the per-core workload descriptions the simulator
// itself would build for cfg: Custom on every core, a mix's parts, or one
// named workload in rate mode.
func coreWorkloads(cfg sim.Config) ([]*workload.Workload, error) {
	parts := make([]*workload.Workload, cfg.Cores)
	if cfg.Custom != nil {
		for i := range parts {
			parts[i] = cfg.Custom
		}
		return parts, nil
	}
	names := make([]string, cfg.Cores)
	for i := range names {
		names[i] = cfg.Workload
	}
	if mix, err := workload.LookupMix(cfg.Workload); err == nil {
		if len(mix.Parts) != cfg.Cores {
			return nil, fmt.Errorf("mix %s has %d parts, config has %d cores",
				mix.Name, len(mix.Parts), cfg.Cores)
		}
		names = mix.Parts
	}
	for i, name := range names {
		w, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		parts[i] = w
	}
	return parts, nil
}

// withTimedSources returns cfg with every core fed by a timed copy of the
// stream the simulator would have built itself (same workload, same seed),
// and the per-core timers.
func withTimedSources(cfg sim.Config) (sim.Config, []*sourceTimes, error) {
	parts, err := coreWorkloads(cfg)
	if err != nil {
		return cfg, nil, err
	}
	times := make([]*sourceTimes, len(parts))
	for i := range times {
		times[i] = new(sourceTimes)
	}
	cfg.Sources = func(core int, seed int64) (workload.Source, error) {
		return wrap(parts[core].NewStream(seed), times[core]), nil
	}
	return cfg, times, nil
}

// sourceTotals sums per-core timers.
type sourceTotals struct {
	fillS, nextS, mutateS float64
	fillLines, nextCalls  int64
}

func (a *sourceTotals) add(times []*sourceTimes) {
	for _, t := range times {
		a.fillS += float64(t.fillNs.Load()) / 1e9
		a.nextS += float64(t.nextNs.Load()) / 1e9
		a.mutateS += float64(t.mutateNs.Load()) / 1e9
		a.fillLines += t.fillLines.Load()
		a.nextCalls += t.nextCalls.Load()
	}
}
