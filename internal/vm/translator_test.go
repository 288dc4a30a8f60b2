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
