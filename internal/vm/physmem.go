// Package vm implements the unified-address-space substrate the paper
// assumes: a sparse simulated physical memory, a pseudo-random frame
// allocator, real x86-64 4-level page tables materialised inside that
// physical memory, and per-process address spaces with a malloc-style heap.
//
// Because the page tables live in simulated physical memory, the page table
// walkers in internal/core perform genuine loads of PTE bytes through the
// simulated cache hierarchy — walk locality, cache-line sharing between
// concurrent walks, and walk cache hits are all real, not modelled.
package vm

import (
	"encoding/binary"
	"fmt"
)

// PageShift4K and PageShift2M are the two translation granularities the
// paper studies (4 KB base pages, 2 MB large pages in section 9).
const (
	PageShift4K = 12
	PageShift2M = 21
	PageSize4K  = 1 << PageShift4K
	PageSize2M  = 1 << PageShift2M
)

// physPage is one materialised 4 KB frame plus a dirty bit. The dirty bit
// exists for snapshot restore (internal/snapshot): it is set on every write
// and cleared when a snapshot is taken, so RestorePages only rewrites the
// frames actually touched since the snapshot instead of the whole footprint.
type physPage struct {
	data  [PageSize4K]byte
	dirty bool
}

// PhysMem is a sparsely backed simulated physical memory. Pages materialise
// on first write; reads of never-written memory return zeroes, matching
// zero-filled DRAM. All addresses are byte addresses.
type PhysMem struct {
	pages map[uint64]*physPage
}

// NewPhysMem returns an empty physical memory.
func NewPhysMem() *PhysMem {
	return &PhysMem{pages: make(map[uint64]*physPage)}
}

// BackedPages reports how many 4 KB physical pages have been materialised.
func (m *PhysMem) BackedPages() int { return len(m.pages) }

func (m *PhysMem) page(pa uint64, create bool) *physPage {
	fn := pa >> PageShift4K
	p := m.pages[fn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(physPage)
		m.pages[fn] = p
	}
	if create {
		// create is true exactly on the write paths; a snapshot restore only
		// needs to revisit frames written since the snapshot.
		p.dirty = true
	}
	return p
}

// Read64 loads a little-endian 64-bit value. The access must not cross a
// 4 KB page boundary (all simulator accesses are naturally aligned).
func (m *PhysMem) Read64(pa uint64) uint64 {
	if pa%8 != 0 {
		panic(fmt.Sprintf("vm: misaligned Read64 at %#x", pa))
	}
	p := m.page(pa, false)
	if p == nil {
		return 0
	}
	off := pa & (PageSize4K - 1)
	return binary.LittleEndian.Uint64(p.data[off : off+8])
}

// Write64 stores a little-endian 64-bit value.
func (m *PhysMem) Write64(pa, val uint64) {
	if pa%8 != 0 {
		panic(fmt.Sprintf("vm: misaligned Write64 at %#x", pa))
	}
	p := m.page(pa, true)
	off := pa & (PageSize4K - 1)
	binary.LittleEndian.PutUint64(p.data[off:off+8], val)
}

// Read32 loads a little-endian 32-bit value.
func (m *PhysMem) Read32(pa uint64) uint32 {
	if pa%4 != 0 {
		panic(fmt.Sprintf("vm: misaligned Read32 at %#x", pa))
	}
	p := m.page(pa, false)
	if p == nil {
		return 0
	}
	off := pa & (PageSize4K - 1)
	return binary.LittleEndian.Uint32(p.data[off : off+4])
}

// Write32 stores a little-endian 32-bit value.
func (m *PhysMem) Write32(pa uint64, val uint32) {
	if pa%4 != 0 {
		panic(fmt.Sprintf("vm: misaligned Write32 at %#x", pa))
	}
	p := m.page(pa, true)
	off := pa & (PageSize4K - 1)
	binary.LittleEndian.PutUint32(p.data[off:off+4], val)
}

// ReadU8 loads one byte.
func (m *PhysMem) ReadU8(pa uint64) byte {
	p := m.page(pa, false)
	if p == nil {
		return 0
	}
	return p.data[pa&(PageSize4K-1)]
}

// PageBytes returns a read-only view of the materialised 4 KB page holding
// pa, or nil when the page has never been written (its contents read as
// zeroes). Digest and diff code uses it to hash pages without a map lookup
// per word; callers must not mutate the returned slice.
func (m *PhysMem) PageBytes(pa uint64) []byte {
	p := m.page(pa, false)
	if p == nil {
		return nil
	}
	return p.data[:]
}

// MutablePageBytes returns a writable view of the materialised 4 KB page
// holding pa, creating it (and setting its dirty bit) if absent. The
// functional interpreter caches these slices to avoid a map lookup per
// access; holders must drop cached slices before any snapshot operation,
// since writes through a cached slice do not re-set the dirty bit.
func (m *PhysMem) MutablePageBytes(pa uint64) []byte {
	return m.page(pa, true).data[:]
}

// FrameAllocator hands out 4 KB physical frames in a pseudo-random order so
// that consecutively mapped virtual pages land on scattered frames, as they
// would on a long-running machine with a fragmented free list. Large-page
// allocation hands out naturally aligned 512-frame runs.
type FrameAllocator struct {
	next      uint64 // next unscrambled frame index
	nextSuper uint64 // next 2 MB superframe index (separate region)
	limit     uint64 // total frames available
	scramble  uint64 // odd multiplier for index scrambling
}

// NewFrameAllocator creates an allocator over totalFrames 4 KB frames.
// totalFrames must be a power of two so index scrambling is a bijection.
func NewFrameAllocator(totalFrames uint64) *FrameAllocator {
	if totalFrames == 0 || totalFrames&(totalFrames-1) != 0 {
		panic("vm: totalFrames must be a nonzero power of two")
	}
	return &FrameAllocator{
		limit: totalFrames,
		// Odd multiplier => bijection mod any power of two.
		scramble: 0x9E3779B97F4A7C15 | 1,
	}
}

// Alloc4K returns the physical byte address of a fresh 4 KB frame.
func (a *FrameAllocator) Alloc4K() uint64 {
	if a.next >= a.limit/2 {
		panic("vm: out of 4K physical frames")
	}
	idx := a.next
	a.next++
	// Scramble within the lower half of the frame space; the upper half is
	// reserved for superframes so the two never collide.
	frame := (idx * a.scramble) % (a.limit / 2)
	return frame << PageShift4K
}

// Alloc2M returns the physical byte address of a fresh naturally aligned
// 2 MB superframe (512 consecutive 4 KB frames).
func (a *FrameAllocator) Alloc2M() uint64 {
	const framesPer2M = PageSize2M / PageSize4K
	superLimit := (a.limit / 2) / framesPer2M
	if a.nextSuper >= superLimit {
		panic("vm: out of 2M physical frames")
	}
	idx := a.nextSuper
	a.nextSuper++
	super := (idx * a.scramble) % superLimit
	return (a.limit/2 + super*framesPer2M) << PageShift4K
}

// Allocated reports how many 4 KB-frame allocations have been made (large
// pages count as 512).
func (a *FrameAllocator) Allocated() uint64 {
	return a.next + a.nextSuper*(PageSize2M/PageSize4K)
}
