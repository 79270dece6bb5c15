package memctrl

import (
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
)

// TestCoalescedReadCountsBenefitOnce drives two same-group demand misses in
// one window: the second coalesces onto the first's in-flight burst. The
// free fetch must feed the utility counter exactly once — the waiter both
// counts the benefit and consumes the prefetch bit, so the LLC owner's
// later OnDemandHit contract cannot recount it — and the one physical burst
// must produce exactly one compressed fill and one predictor record.
func TestCoalescedReadCountsBenefitOnce(t *testing.T) {
	// SampleFrac 1 samples every set, so benefit events always count.
	r := newPTMCRig(t, WithDynamic(1, 1.0, false))
	p := r.ctrl.(*PTMC)
	dyn := p.Dynamic()

	base := mem.LineAddr(640)
	buildLayout(t, r, base, layoutQuad)
	for j := 0; j < 4; j++ {
		r.llc.Drop(base + mem.LineAddr(j))
	}

	// Train the page's LLP entry so the non-base line predicts the quad
	// home and both reads target the same DRAM location.
	y := base + 1
	p.LLP().Record(y, cache.Comp4, false, false)

	st := p.Stats()
	beforeUseful := st.UsefulFreePf
	beforeFills := st.FillsCompressed
	beforeCoalesced := st.CoalescedReads
	beforePred := p.LLP().Predictions
	beforeBenefits := dyn.Counters()[0].Benefits

	done1, done2 := int64(-1), int64(-1)
	r.ctrl.Read(0, base, r.now, func(c int64) { done1 = c })
	r.ctrl.Read(0, y, r.now, func(c int64) { done2 = c })
	r.drain()

	if done1 < 0 || done2 < 0 {
		t.Fatalf("reads did not complete: done1=%d done2=%d", done1, done2)
	}
	if got := st.CoalescedReads - beforeCoalesced; got != 1 {
		t.Fatalf("CoalescedReads delta = %d, want 1 (second read must coalesce)", got)
	}

	// S2: one burst, one fill, one predictor record (the primary's).
	if got := st.FillsCompressed - beforeFills; got != 1 {
		t.Errorf("FillsCompressed delta = %d, want 1 (waiter must not re-count the fill)", got)
	}
	if got := p.LLP().Predictions - beforePred; got != 0 {
		t.Errorf("LLP Predictions delta = %d, want 0 (waiter must not re-record)", got)
	}

	// S1: the waiter consumed the benefit, so its line's prefetch bit must
	// be clear...
	e, in := r.llc.Probe(y)
	if !in {
		t.Fatal("coalesced demand line not resident after drain")
	}
	if e.Prefetch {
		t.Error("prefetch bit still set on the coalesced demand line (benefit would double-count)")
	}
	// ...and replaying the LLC owner's demand-hit contract must not add a
	// second benefit for the same free fetch.
	if e.Prefetch {
		p.OnDemandHit(0, y)
	}
	if got := st.UsefulFreePf - beforeUseful; got != 1 {
		t.Errorf("UsefulFreePf delta = %d, want exactly 1 benefit event", got)
	}
	if got := dyn.Counters()[0].Benefits - beforeBenefits; got != 1 {
		t.Errorf("utility-counter Benefits delta = %d, want exactly 1", got)
	}

	// Untouched members keep their prefetch bits: their benefit is still
	// pending and a demand hit on them should count normally.
	for j := 2; j < 4; j++ {
		if e, in := r.llc.Probe(base + mem.LineAddr(j)); !in || !e.Prefetch {
			t.Errorf("member +%d lost its pending free-prefetch bit (in=%v)", j, in)
		}
	}
	wantLine(t, r.arch.Read(y), compressibleLine(17), "coalesced read value")
}

// TestCoalescedWaiterStillFillsWhenNotInstalled: coalescing alone must not
// suppress a real fill. When the read already in flight for the shared
// location does not install the waiter's line (here: a metadata-style read
// with no fill callback), the waiter's fill is real work and keeps normal
// accounting.
func TestCoalescedWaiterStillFillsWhenNotInstalled(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)

	base := mem.LineAddr(640)
	buildLayout(t, r, base, layoutQuad)
	for j := 0; j < 4; j++ {
		r.llc.Drop(base + mem.LineAddr(j))
	}

	beforeFills := p.Stats().FillsCompressed
	beforeUseful := p.Stats().UsefulFreePf
	p.issue(base, false, fullBurst, kMetadataRead, r.now, func(c int64) {})
	done := int64(-1)
	p.LLP().Record(base+1, cache.Comp4, false, false)
	r.ctrl.Read(0, base+1, r.now, func(c int64) { done = c })
	r.drain()

	if done < 0 {
		t.Fatal("coalesced read did not complete")
	}
	if got := p.Stats().FillsCompressed - beforeFills; got != 1 {
		t.Errorf("FillsCompressed delta = %d, want 1 (waiter's fill is real work)", got)
	}
	if got := p.Stats().UsefulFreePf - beforeUseful; got != 0 {
		t.Errorf("UsefulFreePf delta = %d, want 0 (no primary fill, no free fetch)", got)
	}
	if _, in := r.llc.Probe(base + 1); !in {
		t.Error("demand line not installed by the waiter's own fill")
	}
	wantLine(t, r.arch.Read(base+1), compressibleLine(17), "waiter-filled value")
}
