// Package mem provides the sparse physical-memory backing stores of the
// simulator. Two stores exist per system:
//
//   - the DRAM image: the bytes actually resident in memory, including
//     compressed groups, inline markers, inverted lines, and Invalid-Line
//     markers left behind by relocation;
//   - the architectural store: the last value written to every line, i.e.
//     the values a correct machine must observe.
//
// Keeping both lets the test suite assert, at any instant, that decoding
// the DRAM image reproduces the architectural contents — the paper's
// correctness argument for inline metadata, made executable.
package mem

import "sort"

// LineSize is the number of bytes per cache line / memory burst.
const LineSize = 64

// LineAddr is a physical line address: the physical byte address >> 6.
type LineAddr uint64

// linesPerPage is the number of 64-byte lines in a 4 KB allocation page of
// the sparse store (an allocation unit, unrelated to the OS page size used
// by internal/vm, which happens to match).
const linesPerPage = 64

// page holds the contents of 64 consecutive lines, plus the per-line
// validity mask used by lazily-filled stores: bit i set means lines[i]
// holds real bytes. Stores without a fill callback ignore the mask.
type page struct {
	mask  uint64
	lines [linesPerPage][LineSize]byte
}

// Store is a sparse 64-byte-line-granular memory. Untouched lines read as
// zero. The zero value is ready to use after NewStore; Store is not
// goroutine-safe (the simulator is single-threaded by design — determinism
// is a tested invariant).
type Store struct {
	pages map[uint64]*page

	// chunk is the bump allocator pages are carved from: allocating pages
	// in 64-page chunks amortizes the heap's per-object cost (span setup,
	// heap-bitmap init) across a whole chunk, which matters because a
	// simulation run allocates hundreds of thousands of pages. Pages are
	// never freed individually, so carving from a chunk wastes nothing.
	chunk []page

	// fill, when set, synthesizes the contents of one not-yet-valid line
	// of a lazily-initialized page on first use (see MarkLazy). It must
	// write exactly LineSize bytes.
	fill func(a LineAddr, buf []byte)
}

// lazyPage is the sentinel a lazily-initialized page points at until first
// use. It is shared, never written (the Read/Write paths swap in a real
// page before returning any line of it), and lets MarkLazy cost one map
// insert instead of a 4 KB allocation.
var lazyPage = new(page)

// NewStore returns an empty sparse store.
func NewStore() *Store {
	return &Store{pages: make(map[uint64]*page)}
}

var zeroLine [LineSize]byte

// alloc carves one page from the current chunk.
func (s *Store) alloc() *page {
	if len(s.chunk) == 0 {
		s.chunk = make([]page, 64)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// allocAt replaces the lazy sentinel (or nothing) at page pn with a real,
// zeroed, all-lines-invalid page. No synthesis happens here: lines are
// filled one at a time as they are actually read (memoized in the page) or
// overwritten by stores.
func (s *Store) allocAt(pn uint64) *page {
	p := s.alloc()
	s.pages[pn] = p
	return p
}

// Read returns the contents of line a. The returned slice aliases internal
// storage for touched lines and must not be modified; use Write to mutate.
func (s *Store) Read(a LineAddr) []byte {
	pn := uint64(a) / linesPerPage
	p, ok := s.pages[pn]
	if !ok {
		return zeroLine[:]
	}
	if p == lazyPage {
		p = s.allocAt(pn)
	}
	i := uint64(a) % linesPerPage
	if s.fill != nil && p.mask&(1<<i) == 0 {
		s.fill(a, p.lines[i][:])
		p.mask |= 1 << i
	}
	return p.lines[i][:]
}

// ReadNoAlloc is Read for integrity checks and eviction planning: for a
// line of a still-sentinel lazy page it synthesizes the value into scratch
// (which must be LineSize bytes) instead of allocating the page, so pages
// that are only ever *inspected* — filled, compressed, relocated, but never
// stored to — never pay for 4 KB of backing storage. The returned slice is
// scratch in that case and valid until scratch is reused; otherwise it
// aliases internal storage exactly like Read.
func (s *Store) ReadNoAlloc(a LineAddr, scratch []byte) []byte {
	pn := uint64(a) / linesPerPage
	p, ok := s.pages[pn]
	if !ok {
		return zeroLine[:]
	}
	if p == lazyPage {
		if s.fill == nil {
			return zeroLine[:]
		}
		s.fill(a, scratch)
		return scratch
	}
	i := uint64(a) % linesPerPage
	if s.fill != nil && p.mask&(1<<i) == 0 {
		s.fill(a, p.lines[i][:])
		p.mask |= 1 << i
	}
	return p.lines[i][:]
}

// pageFor returns (allocating as needed) the page holding line a.
func (s *Store) pageFor(a LineAddr) *page {
	pn := uint64(a) / linesPerPage
	p, ok := s.pages[pn]
	if !ok || p == lazyPage {
		p = s.allocAt(pn)
	}
	return p
}

// Write replaces the contents of line a with data (which must be 64 bytes).
func (s *Store) Write(a LineAddr, data []byte) {
	if len(data) != LineSize {
		panic("mem: Write needs a 64-byte line")
	}
	p := s.pageFor(a)
	i := uint64(a) % linesPerPage
	copy(p.lines[i][:], data)
	p.mask |= 1 << i
}

// WritePartial overwrites size bytes at byte offset off within line a.
func (s *Store) WritePartial(a LineAddr, off int, data []byte) {
	if off < 0 || off+len(data) > LineSize {
		panic("mem: WritePartial out of range")
	}
	p := s.pageFor(a)
	i := uint64(a) % linesPerPage
	if s.fill != nil && p.mask&(1<<i) == 0 {
		// The untouched rest of the line must hold its synthesized value
		// before part of it is overwritten.
		s.fill(a, p.lines[i][:])
		p.mask |= 1 << i
	}
	copy(p.lines[i][off:], data)
	p.mask |= 1 << i
}

// Touched reports whether line a has ever been written.
func (s *Store) Touched(a LineAddr) bool {
	_, ok := s.pages[uint64(a)/linesPerPage]
	return ok
}

// TouchedLines returns every line address in pages that have been written,
// in ascending address order. The sort matters: whole-memory operations
// (LIT-overflow re-encoding, image-soundness property checks, fault-campaign
// candidate selection) must be deterministic so a run replays from its seed.
func (s *Store) TouchedLines() []LineAddr {
	pns := make([]uint64, 0, len(s.pages))
	for pn := range s.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	out := make([]LineAddr, 0, len(pns)*linesPerPage)
	for _, pn := range pns {
		for i := uint64(0); i < linesPerPage; i++ {
			out = append(out, LineAddr(pn*linesPerPage+i))
		}
	}
	return out
}

// FootprintBytes returns the number of bytes of touched memory.
func (s *Store) FootprintBytes() uint64 {
	return uint64(len(s.pages)) * linesPerPage * LineSize
}

// SlabLines is the number of lines a Slab spans (one allocation page).
const SlabLines = linesPerPage

// Slab is direct storage access to the allocation page holding line base:
// Line(i) returns the writable backing array of line base+i. First-touch
// page initialization uses it to synthesize each line straight into the
// DRAM image, one write per line instead of synthesize-then-copy.
type Slab struct {
	p *page
}

// Slab returns (allocating if needed) the slab containing line base, which
// must be slab-aligned. Slab access bypasses the per-line validity mask, so
// it is incompatible with lazy filling: a store with a fill callback would
// re-synthesize over slab-written lines on the next Read.
func (s *Store) Slab(base LineAddr) Slab {
	if uint64(base)%linesPerPage != 0 {
		panic("mem: Slab base must be page-aligned")
	}
	if s.fill != nil {
		panic("mem: Slab access on a lazily-filled store")
	}
	return Slab{p: s.pageFor(base)}
}

// SetLazyFill installs the synthesis callback lazily-initialized pages are
// materialized with, one line at a time: the callback receives a line
// address within a page registered by MarkLazy and must write that line's
// initial contents (LineSize bytes) into buf. It runs on the goroutine that
// owns the Store, at the first Read of a line that has neither been written
// nor read before.
func (s *Store) SetLazyFill(fill func(a LineAddr, buf []byte)) { s.fill = fill }

// MarkLazy registers the (previously untouched) page at base — which must
// be slab-aligned — as initialized-on-demand: it is Touched and counts
// toward FootprintBytes immediately, but its 4 KB of storage is allocated
// only when something reads or writes it, and each line is synthesized only
// when something reads it before writing it. The simulator uses this for
// first-touch page initialization of the architectural store, whose
// contents are a pure function of each line's identity until the first
// store to that line; lines that are initialized but never read back never
// pay for synthesis at all. Requires SetLazyFill.
func (s *Store) MarkLazy(base LineAddr) {
	if uint64(base)%linesPerPage != 0 {
		panic("mem: MarkLazy base must be page-aligned")
	}
	if s.fill == nil {
		panic("mem: MarkLazy without SetLazyFill")
	}
	s.pages[uint64(base)/linesPerPage] = lazyPage
}

// Line returns the writable 64-byte backing slice of line i within the slab.
func (sl Slab) Line(i int) []byte { return sl.p.lines[i][:] }
