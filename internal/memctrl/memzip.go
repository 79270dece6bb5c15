package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/metadata"
)

// MemZip models the prior TMC design the paper positions itself against
// (§I, §VII: Shafiee et al., HPCA 2014): every line stays at its own
// location, but it is stored compressed within one chip and streamed out
// with a reduced burst length proportional to its compressed size. This
// requires non-commodity DIMM organization and variable-burst bus
// protocols — the deployment obstacle PTMC removes — and it still needs
// per-line metadata (the burst length) before the read can be issued,
// which this model serves through the same memory-backed metadata table +
// cache as TableTMC.
//
// Bandwidth benefit: burst beats = ceil(compressedBytes/8) instead of 8.
// No co-location, so there is no free-prefetch effect and no invalidates.
type MemZip struct {
	base
	meta *metadata.Table
	// beats is the functional truth of the metadata table's contents: each
	// line's stored burst length, 1-8. The value does not fit the table's
	// 2-bit CSI encoding, so it lives here and metadata-cache traffic is
	// charged through meta.Touch. Array-backed pages keep the eviction hot
	// path allocation-free (see beatStore).
	beats beatStore
}

// NewMemZip builds the comparator; metaBase/mcacheBytes configure the
// burst-length metadata path.
func NewMemZip(d *dram.DRAM, img, arch *mem.Store, llc LLC,
	metaBase mem.LineAddr, mcacheBytes int) (*MemZip, error) {
	mt, err := metadata.New(metaBase, mcacheBytes)
	if err != nil {
		return nil, err
	}
	return &MemZip{
		base:  newBase("memzip", d, img, arch, llc),
		meta:  mt,
		beats: newBeatStore(),
	}, nil
}

// Meta exposes the metadata table (hit-rate reporting).
func (z *MemZip) Meta() *metadata.Table { return z.meta }

// StoredBeats returns the burst length currently recorded for a line
// (verification and tests; 8 for lines never stored).
func (z *MemZip) StoredBeats(a mem.LineAddr) int { return z.beats.get(a) }

// beatsOfLen converts a compressed encoding's byte length to a burst
// length in 8-byte bus beats, clamped to [1, 8].
func beatsOfLen(encLen int) int {
	beats := (encLen + 7) / 8
	if beats > 8 {
		beats = 8
	}
	if beats < 1 {
		beats = 1
	}
	return beats
}

// dataBeats compresses a line value into its burst length. The encoding
// lands in the scratch arena (only its length matters here), so the
// per-writeback compression allocates nothing.
func (z *MemZip) dataBeats(data []byte) int {
	enc := z.alg.AppendCompress(z.scr.groupBuf[:0], data)
	z.scr.groupBuf = enc[:0]
	return beatsOfLen(len(enc))
}

// InitLine implements Controller: first-touch lines enter memory in
// compressed form (MemZip compresses in place; there is no relocation, so
// no prefetch-pollution concern).
func (z *MemZip) InitLine(a mem.LineAddr) {
	data := z.arch.Read(a)
	z.img.Write(a, data)
	z.beats.set(a, z.dataBeats(data))
}

// InitLineReady implements Controller. A first-touch MemZip line is
// stored compressed in place, but the bytes at its location are the raw
// value either way — the reduced burst is a bus-protocol effect, not a
// layout change — so the image synthesized in place is already correct;
// all that must be recorded is the line's burst length.
func (z *MemZip) InitLineReady(a mem.LineAddr, data []byte) bool {
	z.beats.set(a, z.dataBeats(data))
	return true
}

// Read implements Controller: metadata lookup (burst length) first, then a
// reduced burst for the data.
func (z *MemZip) Read(core_ int, a mem.LineAddr, now int64, done Done) {
	z.chargeMeta(z.meta.Touch(a, false), now, func(c int64) {
		beats := z.beats.get(a)
		z.issue(a, false, beats, kDemandRead, c, func(c2 int64) {
			if beats < fullBurst {
				c2 += z.decompLat
				z.st.FillsCompressed++
			} else {
				z.st.FillsUncompressed++
			}
			z.checkIntegrity(a, z.img.Read(a))
			z.install(core_, a, false, false, cache.Uncompressed, c2)
			done(c2)
		})
	})
}

// Evict implements Controller: dirty lines re-compress in place; a burst
// length change costs a metadata update. The full 1-8 beat value goes to
// the beat store; the metadata cache is touched dirty for the CSI-line
// traffic. (An earlier version squeezed the length through the table's
// 2-bit level encoding as newBeats&3, aliasing beats {4,8}→0 and {5,1}→1
// in the stored state; the dedicated store keeps every transition exact.)
func (z *MemZip) Evict(core_ int, e cache.Entry, now int64) {
	if !e.Dirty {
		return
	}
	z.img.Write(e.Tag, z.arch.Read(e.Tag))
	newBeats := z.dataBeats(z.arch.Read(e.Tag))
	old := z.beats.get(e.Tag)
	z.beats.set(e.Tag, newBeats)
	z.issue(e.Tag, true, newBeats, kDirtyWrite, now, nil)
	if newBeats != old {
		z.chargeMeta(z.meta.Touch(e.Tag, true), now, nil)
	}
}
