package vm

import (
	"encoding/binary"
	"fmt"
)

// AddressSpace is a process-like virtual address space: a page table plus a
// bump-allocated heap. Workloads build their data structures here before a
// kernel launches, and the GPU then accesses the same unified address space
// — the property the paper's MMU work exists to support.
type AddressSpace struct {
	Mem   *PhysMem
	PT    *PageTable
	alloc *FrameAllocator

	brk       uint64 // next unallocated virtual address
	pageShift uint   // mapping granularity: PageShift4K or PageShift2M
	mapped    uint64 // bytes of virtual memory mapped
}

// heapBase is where the simulated heap starts; it is far from zero so that
// high-order VA bits exercise all four page table levels realistically.
const heapBase = 0x0000_5C00_0000_0000

// NewAddressSpace creates a space backed by mem and alloc, mapping the heap
// with pages of 1<<pageShift bytes (PageShift4K or PageShift2M).
func NewAddressSpace(mem *PhysMem, alloc *FrameAllocator, pageShift uint) *AddressSpace {
	if pageShift != PageShift4K && pageShift != PageShift2M {
		panic("vm: unsupported page shift")
	}
	return &AddressSpace{
		Mem:       mem,
		PT:        NewPageTable(mem, alloc),
		alloc:     alloc,
		brk:       heapBase,
		pageShift: pageShift,
	}
}

// PageShift reports the mapping granularity of this space.
func (as *AddressSpace) PageShift() uint { return as.pageShift }

// Alloc returns the frame allocator backing this space (snapshot capture
// and restore need its cursors).
func (as *AddressSpace) Alloc() *FrameAllocator { return as.alloc }

// HeapBase returns the virtual address where the heap starts (the base of
// the first Malloc). Reference-model digests iterate mappings from here.
func (as *AddressSpace) HeapBase() uint64 { return heapBase }

// MappedBytes reports how much virtual memory has been mapped.
func (as *AddressSpace) MappedBytes() uint64 { return as.mapped }

// Malloc reserves size bytes of fresh, eagerly mapped virtual memory and
// returns its base address. Allocations are page-aligned and padded to a
// whole number of pages; an extra guard page of slack separates allocations
// so off-by-one kernels fault loudly instead of corrupting neighbours.
func (as *AddressSpace) Malloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	pageSize := uint64(1) << as.pageShift
	base := (as.brk + pageSize - 1) &^ (pageSize - 1)
	pages := (size + pageSize - 1) / pageSize
	for i := uint64(0); i < pages; i++ {
		va := base + i*pageSize
		var err error
		if as.pageShift == PageShift2M {
			err = as.PT.Map2M(va, as.alloc.Alloc2M())
		} else {
			err = as.PT.Map4K(va, as.alloc.Alloc4K())
		}
		if err != nil {
			panic(fmt.Sprintf("vm: Malloc mapping failed: %v", err))
		}
	}
	as.mapped += pages * pageSize
	as.brk = base + (pages+1)*pageSize // +1 page of guard slack
	return base
}

func (as *AddressSpace) translate(va uint64) uint64 {
	pa, ok := as.PT.Translate(va)
	if !ok {
		panic(fmt.Sprintf("vm: access to unmapped va %#x", va))
	}
	return pa
}

// Write64 stores a 64-bit value at virtual address va.
func (as *AddressSpace) Write64(va, val uint64) { as.Mem.Write64(as.translate(va), val) }

// Read64 loads a 64-bit value from virtual address va.
func (as *AddressSpace) Read64(va uint64) uint64 { return as.Mem.Read64(as.translate(va)) }

// Read32 loads a 32-bit value from virtual address va.
func (as *AddressSpace) Read32(va uint64) uint32 { return as.Mem.Read32(as.translate(va)) }

// ReadU8 loads one byte from virtual address va.
func (as *AddressSpace) ReadU8(va uint64) byte { return as.Mem.ReadU8(as.translate(va)) }

// ReadU64s loads len(dst) consecutive 64-bit values starting at va,
// walking the page table once per 4 KB frame instead of once per value.
// It reads exactly what that many Read64 calls would: a misaligned or
// unmapped address panics, and a never-written frame reads as zeroes
// without being materialised.
func (as *AddressSpace) ReadU64s(va uint64, dst []uint64) {
	for len(dst) > 0 {
		if va%8 != 0 {
			panic(fmt.Sprintf("vm: misaligned 8-byte read at va %#x", va))
		}
		off := va & (PageSize4K - 1)
		n := min(len(dst), int(PageSize4K-off)/8)
		if p := as.Mem.page(as.translate(va), false); p != nil {
			for i := range dst[:n] {
				dst[i] = binary.LittleEndian.Uint64(p.data[off+uint64(i)*8:])
			}
		} else {
			clear(dst[:n])
		}
		dst, va = dst[n:], va+uint64(n)*8
	}
}

// Writer stores consecutive little-endian values into an address space,
// walking the page table once per 4 KB frame instead of once per value.
// Workloads lay their datasets out through it. Every value lands exactly
// as the single-value store would put it: a misaligned or unmapped
// address panics, and the frame written is materialised and marked dirty.
// A Writer keeps the page it last wrote, so, like the functional
// interpreter's cached pages, it must not outlive a snapshot restore.
type Writer struct {
	as   *AddressSpace
	va   uint64    // where the next value goes
	page *physPage // the frame last written; nil before the first value
}

// Writer returns a Writer whose first value lands at va.
func (as *AddressSpace) Writer(va uint64) *Writer { return &Writer{as: as, va: va} }

// U64 stores one 64-bit value.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.frame(8), v)
	w.va += 8
}

// U64s stores vals in order.
func (w *Writer) U64s(vals []uint64) {
	for len(vals) > 0 {
		b := w.frame(8)
		n := min(len(vals), len(b)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(b[i*8:], v)
		}
		vals, w.va = vals[n:], w.va+uint64(n)*8
	}
}

// U32s stores vals in order.
func (w *Writer) U32s(vals []uint32) {
	for len(vals) > 0 {
		b := w.frame(4)
		n := min(len(vals), len(b)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(b[i*4:], v)
		}
		vals, w.va = vals[n:], w.va+uint64(n)*4
	}
}

// Bytes stores vals in order.
func (w *Writer) Bytes(vals []byte) {
	for len(vals) > 0 {
		n := copy(w.frame(1), vals)
		vals, w.va = vals[n:], w.va+uint64(n)
	}
}

// frame returns the rest of the frame holding the cursor, from the cursor
// on, for values of size bytes. An aligned value never straddles two
// frames, so the page table is walked only when the cursor enters one.
func (w *Writer) frame(size uint64) []byte {
	if w.va%size != 0 {
		panic(fmt.Sprintf("vm: misaligned %d-byte write at va %#x", size, w.va))
	}
	off := w.va & (PageSize4K - 1)
	if off == 0 || w.page == nil {
		w.page = w.as.Mem.page(w.as.translate(w.va), true)
	}
	w.page.dirty = true
	return w.page.data[off:]
}
