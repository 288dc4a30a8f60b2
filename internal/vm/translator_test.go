package vm_test

import (
	"testing"

	"gpummu/internal/ref"
	"gpummu/internal/vm"
)

func newSpace(t *testing.T, pageShift uint, pages int) *vm.AddressSpace {
	t.Helper()
	as := vm.NewAddressSpace(vm.NewPhysMem(), vm.NewFrameAllocator(1<<22), pageShift)
	as.Malloc(uint64(pages) << pageShift)
	return as
}

// TestLookupMemoisesWalks: one walk per page, reused for every address in
// the page, and Translate composes the page base with the offset exactly
// like a direct page table walk.
func TestLookupMemoisesWalks(t *testing.T) {
	as := newSpace(t, vm.PageShift4K, 4)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	if tr.MemoSize() != 0 {
		t.Fatalf("fresh translator memoised %d pages", tr.MemoSize())
	}
	base := as.HeapBase()
	tr.Lookup(base)
	tr.Lookup(base + 8)
	tr.Lookup(base + 4095)
	if tr.MemoSize() != 1 {
		t.Fatalf("three lookups in one page memoised %d entries, want 1", tr.MemoSize())
	}
	tr.Lookup(base + vm.PageSize4K)
	if tr.MemoSize() != 2 {
		t.Fatalf("second page lookup left memo at %d entries, want 2", tr.MemoSize())
	}
	for _, off := range []uint64{0, 1, 8, 4095, vm.PageSize4K + 123} {
		va := base + off
		want, ok := as.PT.Translate(va)
		if !ok {
			t.Fatalf("va %#x unexpectedly unmapped", va)
		}
		if got := tr.Translate(va); got != want {
			t.Fatalf("Translate(%#x) = %#x, page table says %#x", va, got, want)
		}
	}
}

// TestWalkMatchesReferenceMixed: a page table holding both 4 KB and 2 MB
// mappings (disjoint VA ranges — the allocator never mixes them within one
// space, so build the table directly) must agree with the independent
// reference walker on every level of every walk.
func TestWalkMatchesReferenceMixed(t *testing.T) {
	pm := vm.NewPhysMem()
	alloc := vm.NewFrameAllocator(1 << 22)
	pt := vm.NewPageTable(pm, alloc)

	base4K := uint64(0x0000_5C00_0000_0000)
	base2M := uint64(0x0000_6000_0000_0000)
	var vas []uint64
	for i := uint64(0); i < 8; i++ {
		va := base4K + i*vm.PageSize4K
		if err := pt.Map4K(va, alloc.Alloc4K()); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	for i := uint64(0); i < 3; i++ {
		va := base2M + i*vm.PageSize2M
		if err := pt.Map2M(va, alloc.Alloc2M()); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}

	for _, va := range vas {
		for _, off := range []uint64{0, 7, 0xFFF} {
			got, err := pt.Walk(va + off)
			if err != nil {
				t.Fatalf("walk %#x: %v", va+off, err)
			}
			want := ref.WalkPage(pm, pt.CR3(), va+off)
			if want.Fault {
				t.Fatalf("reference faults on mapped va %#x", va+off)
			}
			if got.PA != want.PA || got.PageShift != want.PageShift || got.Levels != want.Levels {
				t.Fatalf("va %#x: walk (pa=%#x shift=%d levels=%d) vs reference (pa=%#x shift=%d levels=%d)",
					va+off, got.PA, got.PageShift, got.Levels, want.PA, want.PageShift, want.Levels)
			}
			for l := 0; l < got.Levels; l++ {
				if got.LevelPAs[l] != want.LevelPAs[l] {
					t.Fatalf("va %#x level %d: %#x vs %#x", va+off, l, got.LevelPAs[l], want.LevelPAs[l])
				}
			}
		}
	}

	// 2 MB walks are one level shorter than 4 KB walks.
	t4, _ := pt.Walk(base4K)
	t2, _ := pt.Walk(base2M)
	if t4.Levels != 4 || t2.Levels != 3 {
		t.Fatalf("walk levels 4K=%d 2M=%d, want 4 and 3", t4.Levels, t2.Levels)
	}
}

// TestFaultLevelAgreement: both walkers must agree on where a failing walk
// stops — at the PML4 for far-away addresses, at the leaf level for the
// guard page next to a mapped region.
func TestFaultLevelAgreement(t *testing.T) {
	as := newSpace(t, vm.PageShift4K, 2)
	pm, cr3 := as.Mem, as.PT.CR3()
	probes := []uint64{
		0x40_0000,                         // far below the heap: PML4 miss
		as.HeapBase() - vm.PageSize4K,     // below heap base
		as.HeapBase() + 2*vm.PageSize4K,   // the guard page: leaf-level miss
		as.HeapBase() + (uint64(1) << 39), // different PML4 subtree
	}
	for _, va := range probes {
		tr, err := as.PT.Walk(va)
		rw := ref.WalkPage(pm, cr3, va)
		if err == nil || !rw.Fault {
			t.Fatalf("probe %#x expected to fault in both walkers (err=%v, ref fault=%t)", va, err, rw.Fault)
		}
		if rw.FaultLevel != tr.Levels-1 {
			t.Fatalf("probe %#x: page table faults at level %d, reference at %d", va, tr.Levels-1, rw.FaultLevel)
		}
	}
}

// TestLoadStoreRoundTrip: the frame-cached Load and Store agree with the
// AddressSpace's page-table path at every access size, on 4 KB and 2 MB
// mappings, in both directions.
func TestLoadStoreRoundTrip(t *testing.T) {
	for _, shift := range []uint{vm.PageShift4K, vm.PageShift2M} {
		as := newSpace(t, shift, 2)
		tr := vm.NewTranslator(as.PT, shift)
		base := as.HeapBase()
		second := base + uint64(1)<<shift // the second page of the mapping
		for _, va := range []uint64{base, base + 0x7F0, second + 0xFC0} {
			tr.Store(va, 8, 0x1122334455667788)
			if got := as.Read64(va); got != 0x1122334455667788 {
				t.Fatalf("shift %d: Store(%#x, 8) then Read64 = %#x", shift, va, got)
			}
			tr.Store(va+8, 4, 0xAABBCCDD)
			if got := as.Read32(va + 8); got != 0xAABBCCDD {
				t.Fatalf("shift %d: Store(%#x, 4) then Read32 = %#x", shift, va+8, got)
			}
			tr.Store(va+13, 1, 0x1EE)
			if got := as.ReadU8(va + 13); got != 0xEE {
				t.Fatalf("shift %d: Store(%#x, 1) then ReadU8 = %#x", shift, va+13, got)
			}

			as.Write64(va+16, 0x0807060504030201)
			if got := tr.Load(va+16, 8); got != 0x0807060504030201 {
				t.Fatalf("shift %d: Write64 then Load(%#x, 8) = %#x", shift, va+16, got)
			}
			if got := tr.Load(va+20, 4); got != 0x08070605 {
				t.Fatalf("shift %d: Load(%#x, 4) = %#x", shift, va+20, got)
			}
			if got := tr.Load(va+17, 1); got != 0x02 {
				t.Fatalf("shift %d: Load(%#x, 1) = %#x", shift, va+17, got)
			}
		}
	}
}

// TestLoadUnwrittenPage: a never-written page reads as zero without being
// materialised, and is not cached as zero: a write through the page-table
// path afterwards is visible to the next Load.
func TestLoadUnwrittenPage(t *testing.T) {
	as := newSpace(t, vm.PageShift4K, 2)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	va := as.HeapBase() + vm.PageSize4K
	backed := as.Mem.BackedPages()
	if got := tr.Load(va, 8); got != 0 {
		t.Fatalf("unwritten page Load = %#x, want 0", got)
	}
	if got := as.Mem.BackedPages(); got != backed {
		t.Fatalf("Load of an unwritten page materialised it: backed pages %d -> %d", backed, got)
	}
	as.Write64(va, 42)
	if got := tr.Load(va, 8); got != 42 {
		t.Fatalf("Load after Write64 = %d, want 42", got)
	}
}

// TestFrameCacheConflict: two virtual frames 1024 frames apart share a
// cache slot, and each keeps its own data as they evict each other.
func TestFrameCacheConflict(t *testing.T) {
	const slots = 1 << 10
	as := newSpace(t, vm.PageShift4K, slots+1)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	a := as.HeapBase() + 8
	b := a + slots*vm.PageSize4K
	tr.Store(a, 8, 1)
	tr.Store(b, 8, 2)
	for i := 0; i < 3; i++ {
		if got := tr.Load(a, 8); got != 1 {
			t.Fatalf("round %d: Load(a) = %d, want 1", i, got)
		}
		if got := tr.Load(b, 8); got != 2 {
			t.Fatalf("round %d: Load(b) = %d, want 2", i, got)
		}
	}
	if as.Read64(a) != 1 || as.Read64(b) != 2 {
		t.Fatalf("page-table path reads a=%d b=%d, want 1 and 2", as.Read64(a), as.Read64(b))
	}
}

// TestStoreThroughCachedFrameMarksDirty: a store that hits the frame cache
// still sets the page's dirty bit, so a snapshot restore rewinds it.
func TestStoreThroughCachedFrameMarksDirty(t *testing.T) {
	as := newSpace(t, vm.PageShift4K, 1)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	va := as.HeapBase() + 64
	tr.Store(va, 8, 1) // materialises the page and caches its frame
	img := as.Mem.SnapshotPages()
	tr.Store(va, 8, 2) // a frame-cache hit
	as.Mem.RestorePages(img)
	if got := as.Read64(va); got != 1 {
		t.Fatalf("after RestorePages Read64 = %d, want the snapshot's 1", got)
	}
	if got := tr.Load(va, 8); got != 1 {
		t.Fatalf("after RestorePages Load = %d, want the snapshot's 1", got)
	}
}

// TestLoadStoreBadAccessPanics: misaligned, oddly sized and unmapped
// accesses panic on both the miss and the hit path.
func TestLoadStoreBadAccessPanics(t *testing.T) {
	as := newSpace(t, vm.PageShift4K, 1)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	base := as.HeapBase()
	guard := base + vm.PageSize4K // the unmapped guard page after the mapping
	tr.Store(base, 8, 7)          // warm the frame
	cases := []struct {
		name string
		f    func()
	}{
		{"misaligned Load 8", func() { tr.Load(base+4, 8) }},
		{"misaligned Load 4", func() { tr.Load(base+2, 4) }},
		{"misaligned Store 8", func() { tr.Store(base+1, 8, 0) }},
		{"misaligned Store 4", func() { tr.Store(base+6, 4, 0) }},
		{"size 2 Load", func() { tr.Load(base, 2) }},
		{"unmapped Load", func() { tr.Load(guard, 8) }},
		{"unmapped Store", func() { tr.Store(guard, 1, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.f()
		})
	}
}
