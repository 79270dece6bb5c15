package sim

// Cancellation: the daemon's graceful drain (internal/server) relies on a
// cancelled context stopping a live simulation at its next checkpoint —
// every 4096 loop iterations — with the controller's compressed image left
// consistent. These tests pin that contract at the simulator layer for the
// engine and for the per-cycle oracle.

import (
	"context"
	"errors"
	"testing"
	"time"

	"ptmc/internal/cpu"
	"ptmc/internal/mem"
	"ptmc/internal/memctrl"
	"ptmc/internal/workload"
)

// cancelMidRun starts s, cancels it after a short delay, and requires
// RunContext to return context.Canceled promptly.
func cancelMidRun(t *testing.T, s *Simulator) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, rerr := s.RunContext(ctx)
		done <- rerr
	}()
	time.Sleep(10 * time.Millisecond) // let the run get mid-flight
	cancel()
	select {
	case rerr := <-done:
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("RunContext returned %v, want context.Canceled", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return within 5s of cancellation")
	}
}

// The engine cases of the cancellation tests keep the shardsN names they
// had when the engine took a shard count; each now runs the one engine on
// the core count in its table entry.

func TestCancellationAtEpochBarriers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		oracle bool
		cores  int
	}{
		{"oracle", true, 2},
		{"shards2", false, 2},
		{"shards8", false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg("lbm06", SchemeDynamicPTMC)
			cfg.Cores = tc.cores
			cfg.WarmupInstr = 0
			// Far more work than can finish before the cancel lands: the
			// run must die at a checkpoint, not at the finish line.
			cfg.MeasureInstr = 50_000_000
			s := newEither(t, cfg, tc.oracle)
			cancelMidRun(t, s)

			// No store corruption: the controller's compressed image still
			// verifies end to end. Lines resident in the (inclusive) LLC are
			// allowed to be stale in memory — the standard verifier oracle.
			p, ok := s.Controller().(*memctrl.PTMC)
			if !ok {
				t.Fatalf("controller is %T, want *memctrl.PTMC", s.Controller())
			}
			inLLC := func(a mem.LineAddr) bool {
				_, in := s.l3.Probe(a)
				return in
			}
			if _, verr := p.VerifyImage(inLLC); verr != nil {
				t.Fatalf("image corrupt after mid-run cancellation: %v", verr)
			}
		})
	}
}

// TestEventCancellation: the iteration-counted ctx poll interrupts the
// engine promptly even on a run where it skips most cycles — pointer-
// chasing cores with an 8-entry ROB, idle nine cycles in ten — on which an
// `s.now&4095 == 0` poll could be jumped over indefinitely. One core
// skips the most; four cores interleave their wakes.
func TestEventCancellation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cores int
	}{
		{"shards0", 1},
		{"shards4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.Custom = &workload.Workload{
				Name:           "chase",
				Suite:          "micro",
				FootprintBytes: 32 << 20,
				MemFrac:        0.40,
				SeqRun:         2,
				Mix:            workload.ValueMix{{Kind: workload.KindZero, Weight: 1}},
			}
			cfg.Cores = tc.cores
			cfg.Core = cpu.Config{ROB: 8, FetchWidth: 8, RetireWidth: 8}
			cfg.WarmupInstr = 0
			cfg.MeasureInstr = 50_000_000 // cannot finish before the cancel
			cancelMidRun(t, newEither(t, cfg, false))
		})
	}
}

// TestCancellationDuringWarmup checks the warmup leg propagates ctx errors
// through its wrap (the daemon classifies on errors.Is, not string match).
func TestCancellationDuringWarmup(t *testing.T) {
	cfg := quickCfg("mcf06", SchemeUncompressed)
	cfg.WarmupInstr = 50_000_000
	cfg.MeasureInstr = 1000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, rerr := s.RunContext(ctx)
		done <- rerr
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case rerr := <-done:
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("warmup cancellation returned %v, want context.Canceled", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("warmup cancellation never returned")
	}
}

// TestCancellationAlreadyDone: a pre-cancelled context aborts before any
// cycle executes, for both loop implementations.
func TestCancellationAlreadyDone(t *testing.T) {
	for _, oracle := range []bool{true, false} {
		s := newEither(t, quickCfg("lbm06", SchemePTMC), oracle)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("oracle=%t: pre-cancelled run returned %v", oracle, err)
		}
		if s.now != 0 {
			t.Fatalf("oracle=%t: %d cycles executed before the abort", oracle, s.now)
		}
	}
}
