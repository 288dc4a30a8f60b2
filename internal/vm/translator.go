package vm

import (
	"encoding/binary"
	"fmt"
)

// frameCacheSize is the number of slots in a Translator's frame cache.
const frameCacheSize = 1 << 10

// frameSlot is one frame-cache entry: a 4 KB virtual frame number and the
// materialised host page behind it. A nil page marks an empty slot.
type frameSlot struct {
	vfn  uint64
	page *physPage
}

// Translator is the GPU's functional view of its address space. It
// memoises page table walks per virtual page: the MMU in internal/core
// replays a memoised Translation's LevelPAs through the timing model on
// every TLB miss. Load and Store serve the functional side of warp memory
// instructions through a direct-mapped frame cache of host pages. Both
// rely on translations never changing during a kernel (the paper's
// workloads take no page faults or shootdowns mid-run, section 6.2).
// Workload setup does not use a Translator: AddressSpace walks the page
// table directly.
type Translator struct {
	pt     *PageTable
	shift  uint
	memo   map[uint64]Translation
	frames [frameCacheSize]frameSlot
}

// NewTranslator wraps pt, memoising walks at the address space's page
// granularity.
func NewTranslator(pt *PageTable, pageShift uint) *Translator {
	return &Translator{pt: pt, shift: pageShift, memo: make(map[uint64]Translation)}
}

// PageShift returns the translation granularity.
func (t *Translator) PageShift() uint { return t.shift }

// VPN returns the virtual page number of va at this granularity.
func (t *Translator) VPN(va uint64) uint64 { return va >> t.shift }

// MemoSize reports how many page translations are currently memoised
// (tests observe walk caching through it).
func (t *Translator) MemoSize() int { return len(t.memo) }

// Lookup returns the memoised translation for the page containing va,
// walking the page table on first use.
func (t *Translator) Lookup(va uint64) Translation {
	vpn := t.VPN(va)
	if tr, ok := t.memo[vpn]; ok {
		return tr
	}
	tr, err := t.pt.Walk(va &^ ((1 << t.shift) - 1))
	if err != nil {
		panic(fmt.Sprintf("vm: translator: %v", err))
	}
	if tr.PageShift != t.shift {
		panic(fmt.Sprintf("vm: translator: page shift mismatch: got %d want %d", tr.PageShift, t.shift))
	}
	t.memo[vpn] = tr
	return tr
}

// Translate returns the physical address for va.
func (t *Translator) Translate(va uint64) uint64 {
	tr := t.Lookup(va)
	return tr.PageBase() | (va & ((1 << t.shift) - 1))
}

// Load reads a little-endian value of size bytes (1, 4 or 8) at virtual
// address va, with PhysMem's semantics: a misaligned access panics, and a
// never-written page reads as zero without being materialised.
func (t *Translator) Load(va uint64, size int) uint64 {
	if badAccess(va, size) {
		panicAccess(va, size)
	}
	p := t.cached(va)
	if p == nil {
		if p = t.fill(va, false); p == nil {
			return 0
		}
	}
	off := va & (PageSize4K - 1)
	switch size {
	case 1:
		return uint64(p.data[off])
	case 4:
		return uint64(binary.LittleEndian.Uint32(p.data[off : off+4]))
	}
	return binary.LittleEndian.Uint64(p.data[off : off+8])
}

// Store writes the low size bytes (1, 4 or 8) of v at virtual address va,
// little-endian, with PhysMem's semantics: a misaligned access panics, the
// page materialises on first write, and every store sets its dirty bit.
func (t *Translator) Store(va uint64, size int, v uint64) {
	if badAccess(va, size) {
		panicAccess(va, size)
	}
	p := t.cached(va)
	if p == nil {
		p = t.fill(va, true)
	}
	p.dirty = true
	off := va & (PageSize4K - 1)
	switch size {
	case 1:
		p.data[off] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(p.data[off:off+4], uint32(v))
	default:
		binary.LittleEndian.PutUint64(p.data[off:off+8], v)
	}
}

// badAccess reports whether an access of size bytes at va is of an
// unsupported size or misaligned.
func badAccess(va uint64, size int) bool {
	return size != 1 && size != 4 && size != 8 || va&uint64(size-1) != 0
}

func panicAccess(va uint64, size int) {
	panic(fmt.Sprintf("vm: misaligned or unsupported %d-byte access at va %#x", size, va))
}

// cached returns the frame cache's page for va's 4 KB frame, or nil on a
// miss.
func (t *Translator) cached(va uint64) *physPage {
	vfn := va >> PageShift4K
	s := &t.frames[vfn&(frameCacheSize-1)]
	if s.vfn != vfn {
		return nil
	}
	return s.page
}

// fill resolves a frame-cache miss through the walk memo and PhysMem, and
// caches the page once it is materialised. create is true for stores; a
// load of a never-written page returns nil and caches nothing, so a later
// store still goes through PhysMem and materialises it.
func (t *Translator) fill(va uint64, create bool) *physPage {
	p := t.pt.mem.page(t.Translate(va), create)
	if p != nil {
		vfn := va >> PageShift4K
		t.frames[vfn&(frameCacheSize-1)] = frameSlot{vfn: vfn, page: p}
	}
	return p
}
