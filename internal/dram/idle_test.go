package dram

import (
	"reflect"
	"testing"

	"ptmc/internal/mem"
)

// TestIdleAccountingSerialVsEngine pins the contract behind the run
// loop's cycle skipping: Stats.IdleChannels counts one event per idle
// channel per bus cycle in BOTH execution modes — whether the cycle was
// actually scanned (serial Tick loop, including its all-empty early exit),
// individually slept through (engine-mode Tick with a future wakeAt), or
// skipped wholesale (SkippedTicks). The same request schedule is replayed
// through both drivers and every statistic and completion must coincide.
func TestIdleAccountingSerialVsEngine(t *testing.T) {
	type enq struct {
		at    int64
		addr  mem.LineAddr
		write bool
	}
	// Addresses 0..3 land on channel 0, 4..7 on channel 1 (the channel
	// interleave rotates 4-line groups). The schedule covers: one busy
	// channel with the other idle, both busy, a long fully-idle gap, and a
	// late burst after the gap.
	schedule := []enq{
		{0, 0, false},
		{0, 1, false},
		{4, 64, false}, // same channel 0, different row
		{8, 4, false},  // channel 1
		{8, 5, true},
		{400, 2, true}, // after a long idle gap
		{400, 6, false},
	}
	const horizon = 1200

	run := func(engine bool) (Stats, []int64) {
		d, err := New(DDR4())
		if err != nil {
			t.Fatal(err)
		}
		d.SetEngineMode(engine)
		r := int64(d.Config().BusRatio)
		var completions []int64
		ei := 0
		enqueueDue := func(now int64) {
			for ei < len(schedule) && schedule[ei].at == now {
				e := schedule[ei]
				req := &Request{Addr: e.addr, Write: e.write, Beats: 4,
					OnComplete: func(c int64) { completions = append(completions, c) }}
				if !d.Enqueue(req, now) {
					t.Fatalf("enqueue rejected at %d", now)
				}
				ei++
			}
		}
		for now := int64(0); now <= horizon; {
			enqueueDue(now)
			d.Tick(now)
			next := now + r
			if !engine {
				now = next
				continue
			}
			// Engine driver: jump to the next cycle anything can happen —
			// a channel wake or a scheduled enqueue — crediting the
			// skipped bus cycles to the idle accounting, exactly as the
			// simulator's run loop does.
			wake := d.NextEventCycle()
			if ei < len(schedule) && schedule[ei].at < wake {
				wake = schedule[ei].at
			}
			if wake > horizon+r {
				wake = horizon + r
			}
			if wake > next {
				d.SkippedTicks((wake - next) / r)
				now = wake
			} else {
				now = next
			}
		}
		return d.Stats, completions
	}

	serialStats, serialDone := run(false)
	engineStats, engineDone := run(true)

	if serialStats.IdleChannels != engineStats.IdleChannels {
		t.Errorf("IdleChannels diverge: serial=%d engine=%d",
			serialStats.IdleChannels, engineStats.IdleChannels)
	}
	if !reflect.DeepEqual(serialStats, engineStats) {
		t.Errorf("stats diverge:\nserial: %+v\nengine: %+v", serialStats, engineStats)
	}
	if !reflect.DeepEqual(serialDone, engineDone) {
		t.Errorf("completion times diverge:\nserial: %v\nengine: %v", serialDone, engineDone)
	}
	if len(serialDone) != len(schedule) {
		t.Fatalf("completed %d of %d requests", len(serialDone), len(schedule))
	}
	// Sanity: the run has real idle time to account (the gap dominates).
	if serialStats.IdleChannels == 0 {
		t.Error("schedule produced no idle accounting at all")
	}
}

// TestFutureStampedEnqueueVisibleNextTick is the regression test for a
// wake-scheduling bug the full-scale benchmark runs exposed: the miss path
// stamps requests with future completion-latency cycles, and wakeOnEnqueue
// used to compute the channel's wake from that stamp — so a sleeping
// channel slept through bus ticks where the per-cycle loop's per-tick scan
// (which never looks at stamps) would already have issued the request.
// Visibility is a property of the Enqueue call's program point: a request
// enqueued between ticks must wake its channel no later than the next
// executed tick, whatever cycle stamp it carries.
func TestFutureStampedEnqueueVisibleNextTick(t *testing.T) {
	d, err := New(DDR4())
	if err != nil {
		t.Fatal(err)
	}
	d.SetEngineMode(true)
	r := int64(d.Config().BusRatio)

	// Put the channel to sleep: issue one read and run ticks until it
	// completes and the channel has nothing left to do.
	var done int64
	req := &Request{Addr: 0, OnComplete: func(c int64) { done = c }}
	if !d.Enqueue(req, 0) {
		t.Fatal("enqueue rejected")
	}
	now := int64(0)
	for ; done == 0 && now < 10_000; now += r {
		d.Tick(now)
	}
	if done == 0 {
		t.Fatal("read never completed")
	}
	if w := d.NextEventCycle(); w <= now {
		t.Fatalf("channel still has work scheduled at %d; test needs it asleep", w)
	}

	// A core-driven enqueue at the current cycle carrying a far-future
	// latency stamp: the per-cycle loop would scan it at the next executed
	// tick, so the engine's wake must be no later than that.
	stamp := now + 40*r // e.g. now + L3 latency and then some
	req2 := &Request{Addr: 64, OnComplete: func(int64) {}}
	if !d.Enqueue(req2, stamp) {
		t.Fatal("enqueue rejected")
	}
	if w, next := d.NextEventCycle(), now+r; w > next {
		t.Errorf("future-stamped enqueue woke the channel at %d, want <= %d (next tick); "+
			"the stamp (%d) must not delay visibility", w, next, stamp)
	}
}
