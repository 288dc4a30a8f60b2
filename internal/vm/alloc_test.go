package vm

import "testing"

// TestWalkAllocFree pins the allocation-free functional walk: Walk fills a
// value-embedded LevelPAs array, so page table walks — executed once per
// TLB miss plus once per memoised functional translation — must not touch
// the heap.
func TestWalkAllocFree(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(1 << 20)
	pt := NewPageTable(mem, alloc)
	va := uint64(0x5C00_0000_0000)
	if err := pt.Map4K(va, alloc.Alloc4K()); err != nil {
		t.Fatal(err)
	}
	// Warm: materialise any lazily created physical pages.
	if _, err := pt.Walk(va); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := pt.Walk(va); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("PageTable.Walk allocates %.1f objects per walk, want 0", avg)
	}
}

// TestTranslatorHitAllocFree pins the memoised translation hit path the
// MMU replays walks from, and the frame-cache hit path of Load and Store
// used by every functional load and store in the simulator.
func TestTranslatorHitAllocFree(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(1 << 20)
	pt := NewPageTable(mem, alloc)
	va := uint64(0x5C00_0000_0000)
	if err := pt.Map4K(va, alloc.Alloc4K()); err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(pt, PageShift4K)
	tr.Lookup(va) // prime the cache
	avg := testing.AllocsPerRun(200, func() {
		if got := tr.Translate(va + 8); got == 0 {
			t.Fatal("unexpected zero translation")
		}
	})
	if avg != 0 {
		t.Fatalf("Translator hit allocates %.1f objects per lookup, want 0", avg)
	}

	tr.Store(va, 8, 1) // materialise the page and cache its frame
	avg = testing.AllocsPerRun(200, func() {
		tr.Store(va+16, 4, tr.Load(va, 8)+1)
	})
	if avg != 0 {
		t.Fatalf("warm Load+Store allocates %.1f objects per pair, want 0", avg)
	}
}

// TestWriterAllocFree pins page-granular dataset writes and reads: once
// the frames exist, a Writer over them and ReadU64s allocate nothing.
func TestWriterAllocFree(t *testing.T) {
	as := NewAddressSpace(NewPhysMem(), NewFrameAllocator(1<<20), PageShift4K)
	base := as.Malloc(4 * PageSize4K)
	u64s := make([]uint64, 3*PageSize4K/8)
	u32s := make([]uint32, 16)
	raw := make([]byte, 16)
	write := func() {
		w := as.Writer(base + 8)
		w.U64s(u64s)
		w.U64(1)
		w.U32s(u32s)
		w.Bytes(raw)
	}
	write() // materialise the frames
	avg := testing.AllocsPerRun(100, func() {
		write()
		as.ReadU64s(base, u64s)
	})
	if avg != 0 {
		t.Fatalf("warm Writer and ReadU64s allocate %.1f objects per pass, want 0", avg)
	}
}
