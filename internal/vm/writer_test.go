package vm

import (
	"bytes"
	"testing"
)

// pageSizes runs f on a fresh address space of each page size.
func pageSizes(t *testing.T, f func(t *testing.T, as *AddressSpace)) {
	for name, shift := range map[string]uint{"4k": PageShift4K, "2m": PageShift2M} {
		t.Run(name, func(t *testing.T) {
			f(t, NewAddressSpace(NewPhysMem(), NewFrameAllocator(1<<20), shift))
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestWriterMatchesPerWordWrites writes spans that cross 4 KB frame
// boundaries through a Writer into one space, and the same values one at a
// time into an identically built twin. Both must end with the same
// materialised frames, bytes and dirty bits.
func TestWriterMatchesPerWordWrites(t *testing.T) {
	pageSizes(t, func(t *testing.T, as *AddressSpace) {
		twin := NewAddressSpace(NewPhysMem(), NewFrameAllocator(1<<20), as.PageShift())
		a, b := as.Malloc(4*PageSize4K), twin.Malloc(4*PageSize4K)
		if a != b {
			t.Fatalf("twins laid out differently: %#x vs %#x", a, b)
		}
		pa := func(va uint64) uint64 { return twin.translate(va) }

		u64s := []uint64{1, 2, 3, 4, 5}
		u32s := make([]uint32, PageSize4K/4+3) // longer than a whole frame
		for i := range u32s {
			u32s[i] = uint32(i)*0x01010101 + 7
		}
		raw := []byte("crosses a frame boundary")

		// 16 bytes before the first boundary: the u64 span crosses it.
		va := a + PageSize4K - 16
		w := as.Writer(va)
		w.U64s(u64s)
		w.U64(0xFEED)
		w.U32s(u32s)
		for _, v := range u64s {
			twin.Write64(va, v)
			va += 8
		}
		twin.Write64(va, 0xFEED)
		va += 8
		for _, v := range u32s {
			twin.Mem.Write32(pa(va), v)
			va += 4
		}
		// A fresh Writer, byte-granular, ending past the next boundary.
		va = a + 3*PageSize4K - 5
		as.Writer(va).Bytes(raw)
		for _, c := range raw {
			twin.Mem.MutablePageBytes(pa(va))[va&(PageSize4K-1)] = c
			va++
		}

		if len(as.Mem.pages) != len(twin.Mem.pages) {
			t.Fatalf("%d frames materialised, per-word writes made %d", len(as.Mem.pages), len(twin.Mem.pages))
		}
		for fn, p := range twin.Mem.pages {
			q := as.Mem.pages[fn]
			switch {
			case q == nil:
				t.Fatalf("frame %#x not materialised", fn)
			case !bytes.Equal(q.data[:], p.data[:]):
				t.Errorf("frame %#x holds different bytes", fn)
			case q.dirty != p.dirty:
				t.Errorf("frame %#x dirty=%v, per-word writes left %v", fn, q.dirty, p.dirty)
			}
		}

		got := make([]uint64, len(u64s)+1)
		as.ReadU64s(a+PageSize4K-16, got)
		for i, want := range append(u64s, 0xFEED) {
			if got[i] != want {
				t.Errorf("ReadU64s[%d] = %#x, want %#x", i, got[i], want)
			}
		}
	})
}

// TestWriterZeroLength: empty spans touch nothing, not even the page table.
func TestWriterZeroLength(t *testing.T) {
	pageSizes(t, func(t *testing.T, as *AddressSpace) {
		base := as.Malloc(PageSize4K)
		before := as.Mem.BackedPages()
		unmapped := base + uint64(1)<<as.PageShift() + 3 // guard page, misaligned
		for _, va := range []uint64{base, unmapped} {
			w := as.Writer(va)
			w.U64s(nil)
			w.U32s(nil)
			w.Bytes(nil)
			as.ReadU64s(va, nil)
		}
		if got := as.Mem.BackedPages(); got != before {
			t.Fatalf("empty spans materialised %d frames", got-before)
		}
	})
}

// TestWriterPanics: misaligned values and spans that run into the guard
// page after an allocation panic, as the per-word accessors do.
func TestWriterPanics(t *testing.T) {
	pageSizes(t, func(t *testing.T, as *AddressSpace) {
		base := as.Malloc(PageSize4K)
		end := base + uint64(1)<<as.PageShift() // first guard byte
		mustPanic(t, "misaligned U64", func() { as.Writer(base + 4).U64(1) })
		mustPanic(t, "misaligned U64s", func() { as.Writer(base + 8 + 2).U64s([]uint64{1}) })
		mustPanic(t, "misaligned U32s", func() { as.Writer(base + 2).U32s([]uint32{1}) })
		mustPanic(t, "U8 then U64", func() {
			w := as.Writer(base)
			w.Bytes([]byte{1})
			w.U64(2)
		})
		mustPanic(t, "misaligned ReadU64s", func() { as.ReadU64s(base+4, make([]uint64, 1)) })
		mustPanic(t, "U64s into the guard page", func() { as.Writer(end - 8).U64s([]uint64{1, 2}) })
		// The value before the guard page still landed, as with Write64.
		if got := as.Read64(end - 8); got != 1 {
			t.Errorf("last mapped word = %#x, want 1", got)
		}
		mustPanic(t, "Bytes into the guard page", func() { as.Writer(end - 1).Bytes([]byte{1, 2}) })
		mustPanic(t, "ReadU64s into the guard page", func() { as.ReadU64s(end-8, make([]uint64, 2)) })
	})
}

// TestReadU64sNeverWrittenFrames: frames never written read as zero and
// stay unmaterialised.
func TestReadU64sNeverWrittenFrames(t *testing.T) {
	pageSizes(t, func(t *testing.T, as *AddressSpace) {
		base := as.Malloc(3 * PageSize4K)
		as.Writer(base + PageSize4K).U64s([]uint64{7, 8})
		before := as.Mem.BackedPages()
		got := make([]uint64, 3*PageSize4K/8)
		for i := range got {
			got[i] = 0xBAD
		}
		as.ReadU64s(base, got)
		for i, v := range got {
			want := uint64(0)
			switch i {
			case PageSize4K / 8:
				want = 7
			case PageSize4K/8 + 1:
				want = 8
			}
			if v != want {
				t.Fatalf("word %d = %#x, want %#x", i, v, want)
			}
		}
		if after := as.Mem.BackedPages(); after != before {
			t.Fatalf("ReadU64s materialised %d frames", after-before)
		}
	})
}

// TestWriterRewoundBySnapshot: writes made through a Writer after
// SnapshotPages are undone by RestorePages, both in a frame the Writer
// already held when the snapshot cleaned it and in a frame the snapshot
// did not have.
func TestWriterRewoundBySnapshot(t *testing.T) {
	pageSizes(t, func(t *testing.T, as *AddressSpace) {
		base := as.Malloc(2 * PageSize4K)
		w := as.Writer(base)
		w.U64(1)
		img := as.Mem.SnapshotPages()
		frames := as.Mem.BackedPages()

		w.U64(2)
		as.Writer(base + PageSize4K).U64s([]uint64{3})
		as.Mem.RestorePages(img)

		got := make([]uint64, 2)
		as.ReadU64s(base, got)
		if got[0] != 1 || got[1] != 0 {
			t.Fatalf("after restore read %v, want [1 0]", got)
		}
		if n := as.Mem.BackedPages(); n != frames {
			t.Fatalf("%d frames after restore, want %d", n, frames)
		}
	})
}
