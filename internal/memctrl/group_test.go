package memctrl

import (
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
)

// planRig builds a bare base (no controller) around a small LLC for direct
// planner tests.
func planRig(t *testing.T) (*base, *testLLC) {
	t.Helper()
	d, err := dram.New(dram.DDR4())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{SizeBytes: 64 * 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	llc := &testLLC{c: c}
	b := newBase("test", d, mem.NewStore(), mem.NewStore(), llc)
	return &b, llc
}

// setArch stores a value in the architectural store.
func setArch(b *base, a mem.LineAddr, val []byte) { b.arch.Write(a, val) }

func TestPlanQuadFromFourResidents(t *testing.T) {
	b, llc := planRig(t)
	for i := 0; i < 4; i++ {
		setArch(b, mem.LineAddr(100+i), compressibleLine(byte(i)))
		llc.c.Install(mem.LineAddr(100+i), cache.Entry{Dirty: i == 0})
	}
	evicted, _ := llc.c.Invalidate(100)
	units, evictees := b.planEviction(evicted, true, 60)
	if len(units) != 1 || units[0].level != cache.Comp4 || units[0].home != 100 {
		t.Fatalf("units = %+v", units)
	}
	if !units[0].anyDirty || units[0].unchanged {
		t.Error("dirty member must force a write")
	}
	if len(evictees) != 4 {
		t.Errorf("evictees = %d, want 4 (ganged)", len(evictees))
	}
	for i := 1; i < 4; i++ {
		if _, in := llc.c.Probe(mem.LineAddr(100 + i)); in {
			t.Errorf("member %d not gang-dropped", i)
		}
	}
	// Invalidates: locations 101..103 held valid data before.
	stale := b.staleLocations(units, evictees)
	if len(stale) != 3 {
		t.Errorf("stale locations = %v, want 3", stale)
	}
}

func TestPlanPairWhenQuadDoesNotFit(t *testing.T) {
	b, llc := planRig(t)
	setArch(b, 200, compressibleLine(1))
	setArch(b, 201, compressibleLine(2))
	setArch(b, 202, incompressibleLine(1))
	setArch(b, 203, incompressibleLine(2))
	for i := 0; i < 4; i++ {
		llc.c.Install(mem.LineAddr(200+i), cache.Entry{Dirty: true})
	}
	evicted, _ := llc.c.Invalidate(200)
	units, _ := b.planEviction(evicted, true, 60)
	// Pair (200,201) compresses; 202, 203 stay in the LLC untouched —
	// they are not part of 200's old (uncompressed) unit.
	if len(units) != 1 || units[0].level != cache.Comp2 {
		t.Fatalf("units = %+v", units)
	}
	if _, in := llc.c.Probe(202); !in {
		t.Error("unrelated pair must not be gang-dropped")
	}
	if _, in := llc.c.Probe(201); in {
		t.Error("pair partner must be pulled out of the LLC")
	}
}

func TestPlanSinglesWhenNotCompressing(t *testing.T) {
	b, llc := planRig(t)
	setArch(b, 300, compressibleLine(1))
	setArch(b, 301, compressibleLine(2))
	llc.c.Install(300, cache.Entry{Dirty: true})
	llc.c.Install(301, cache.Entry{Dirty: true})
	evicted, _ := llc.c.Invalidate(300)
	units, _ := b.planEviction(evicted, false, 60)
	// Compression disabled: 300 goes back alone; 301 stays resident (it
	// was not part of 300's old unit).
	if len(units) != 1 || units[0].level != cache.Uncompressed || units[0].home != 300 {
		t.Fatalf("units = %+v", units)
	}
	if _, in := llc.c.Probe(301); !in {
		t.Error("disabled compression must not gang-drop the neighbor")
	}
}

func TestPlanDisabledCleanCompressedUnitIsLeftAlone(t *testing.T) {
	// Dynamic-PTMC disabled: clean eviction of an intact 2:1 pair writes
	// nothing (stop compressing != decompress).
	b, llc := planRig(t)
	setArch(b, 400, compressibleLine(1))
	setArch(b, 401, compressibleLine(2))
	llc.c.Install(400, cache.Entry{Level: cache.Comp2})
	llc.c.Install(401, cache.Entry{Level: cache.Comp2})
	evicted, _ := llc.c.Invalidate(400)
	units, evictees := b.planEviction(evicted, false, 60)
	if len(units) != 1 || !units[0].unchanged {
		t.Fatalf("units = %+v, want one unchanged unit", units)
	}
	if len(b.staleLocations(units, evictees)) != 0 {
		t.Error("unchanged unit must not create tombstones")
	}
	if _, in := llc.c.Probe(401); in {
		t.Error("ganged eviction still applies to the old unit")
	}
}

func TestPlanDisabledDirtyMaintainsFittingUnit(t *testing.T) {
	// Disabled + dirty, but the new data still fits: the unit is
	// re-sealed in place — one write, no tombstones, no breakup.
	b, llc := planRig(t)
	setArch(b, 404, compressibleLine(1))
	setArch(b, 405, compressibleLine(2))
	llc.c.Install(404, cache.Entry{Level: cache.Comp2, Dirty: true})
	llc.c.Install(405, cache.Entry{Level: cache.Comp2})
	evicted, _ := llc.c.Invalidate(404)
	units, evictees := b.planEviction(evicted, false, 60)
	if len(units) != 1 || units[0].level != cache.Comp2 || !units[0].anyDirty {
		t.Fatalf("units = %+v, want one re-sealed pair", units)
	}
	if units[0].blob == nil {
		t.Error("re-sealed unit needs its payload")
	}
	if n := len(b.staleLocations(units, evictees)); n != 0 {
		t.Errorf("stale locations = %d, want 0", n)
	}
}

func TestPlanDisabledDirtyBreaksWhenUnfit(t *testing.T) {
	// Disabled + dirty + no longer fits: the unit must break into
	// singles.
	b, llc := planRig(t)
	setArch(b, 404, incompressibleLine(1)) // dirtied incompressible
	setArch(b, 405, compressibleLine(2))
	llc.c.Install(404, cache.Entry{Level: cache.Comp2, Dirty: true})
	llc.c.Install(405, cache.Entry{Level: cache.Comp2})
	evicted, _ := llc.c.Invalidate(404)
	units, evictees := b.planEviction(evicted, false, 60)
	if len(units) != 2 {
		t.Fatalf("units = %+v, want two singles", units)
	}
	for _, u := range units {
		if u.level != cache.Uncompressed {
			t.Errorf("unit level = %v, want uncompressed", u.level)
		}
	}
	if n := len(b.staleLocations(units, evictees)); n != 0 {
		t.Errorf("stale locations = %d, want 0", n)
	}
}

func TestPlanGhostMemberPreserved(t *testing.T) {
	// A member of the old compressed unit is not in the LLC (ghost): the
	// rewrite must still give it a home.
	b, llc := planRig(t)
	setArch(b, 500, compressibleLine(1))
	setArch(b, 501, incompressibleLine(7)) // pair became incompressible
	llc.c.Install(500, cache.Entry{Level: cache.Comp2, Dirty: true})
	// 501 NOT installed: ghost.
	evicted, _ := llc.c.Invalidate(500)
	units, _ := b.planEviction(evicted, true, 60)
	homes := map[mem.LineAddr]bool{}
	for _, u := range units {
		homes[u.home] = true
	}
	if !homes[500] || !homes[501] {
		t.Fatalf("ghost member lost its home: units=%+v", units)
	}
}

func TestPlanUnchangedCleanPairSkipsWrite(t *testing.T) {
	b, llc := planRig(t)
	setArch(b, 600, compressibleLine(1))
	setArch(b, 601, compressibleLine(2))
	llc.c.Install(600, cache.Entry{Level: cache.Comp2})
	llc.c.Install(601, cache.Entry{Level: cache.Comp2})
	evicted, _ := llc.c.Invalidate(600)
	units, _ := b.planEviction(evicted, true, 60)
	if len(units) != 1 || !units[0].unchanged {
		t.Fatalf("clean re-eviction of same-level pair should be unchanged: %+v", units)
	}
}

func TestPlanOpportunisticQuadPullsOtherPair(t *testing.T) {
	// Pair (700,701) compressed in memory; (702,703) resident
	// uncompressed. Evicting 700 should form a 4:1 quad, pulling all.
	b, llc := planRig(t)
	for i := 0; i < 4; i++ {
		setArch(b, mem.LineAddr(700+i), compressibleLine(byte(i)))
	}
	llc.c.Install(700, cache.Entry{Level: cache.Comp2, Dirty: true})
	llc.c.Install(701, cache.Entry{Level: cache.Comp2})
	llc.c.Install(702, cache.Entry{})
	llc.c.Install(703, cache.Entry{})
	evicted, _ := llc.c.Invalidate(700)
	units, evictees := b.planEviction(evicted, true, 60)
	if len(units) != 1 || units[0].level != cache.Comp4 {
		t.Fatalf("units = %+v, want one quad", units)
	}
	if len(evictees) != 4 {
		t.Errorf("evictees = %d, want 4", len(evictees))
	}
	// 702's own location held valid data and is not a home now.
	stale := b.staleLocations(units, evictees)
	want := map[mem.LineAddr]bool{702: true, 703: true}
	for _, s := range stale {
		if !want[s] {
			t.Errorf("unexpected tombstone at %d", s)
		}
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("missing tombstones: %v", want)
	}
}

func TestCoalescedReadsShareOneBurst(t *testing.T) {
	r := newUncompressedRig(t)
	r.ctrl.InitLine(40)
	r.arch.Write(40, compressibleLine(1))
	r.ctrl.InitLine(40)

	b := &r.ctrl.(*Uncompressed).base
	done := 0
	for i := 0; i < 3; i++ {
		b.issue(40, false, fullBurst, kDemandRead, r.now, func(int64) { done++ })
	}
	r.drain()
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	if b.st.DemandReads != 1 {
		t.Errorf("DRAM bursts = %d, want 1 (coalesced)", b.st.DemandReads)
	}
	if b.st.CoalescedReads != 2 {
		t.Errorf("coalesced = %d, want 2", b.st.CoalescedReads)
	}
}

func TestWritesDoNotCoalesce(t *testing.T) {
	r := newUncompressedRig(t)
	b := &r.ctrl.(*Uncompressed).base
	b.issue(41, true, fullBurst, kDirtyWrite, r.now, nil)
	b.issue(41, true, fullBurst, kDirtyWrite, r.now, nil)
	r.drain()
	if b.st.DirtyWrites != 2 {
		t.Errorf("writes = %d, want 2 (no write coalescing)", b.st.DirtyWrites)
	}
}
