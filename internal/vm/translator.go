package vm

import "fmt"

// Translator memoises page table walks per virtual page so the simulator's
// functional path (instruction execution, workload setup) can translate at
// map-lookup speed. The timing path in internal/core uses the memoised
// Translation's LevelPAs to issue the walk's loads through the timing model;
// the translations themselves never change during a kernel (the paper's
// workloads take no page faults or shootdowns mid-run, section 6.2).
type Translator struct {
	pt    *PageTable
	shift uint
	cache map[uint64]Translation
}

// NewTranslator wraps pt, caching at the address space's page granularity.
func NewTranslator(pt *PageTable, pageShift uint) *Translator {
	return &Translator{pt: pt, shift: pageShift, cache: make(map[uint64]Translation)}
}

// PageShift returns the translation granularity.
func (t *Translator) PageShift() uint { return t.shift }

// VPN returns the virtual page number of va at this granularity.
func (t *Translator) VPN(va uint64) uint64 { return va >> t.shift }

// MemoSize reports how many page translations are currently memoised
// (tests observe walk caching through it).
func (t *Translator) MemoSize() int { return len(t.cache) }

// Lookup returns the cached translation for the page containing va,
// walking the page table on first use.
func (t *Translator) Lookup(va uint64) Translation {
	vpn := t.VPN(va)
	if tr, ok := t.cache[vpn]; ok {
		return tr
	}
	tr, err := t.pt.Walk(va &^ ((1 << t.shift) - 1))
	if err != nil {
		panic(fmt.Sprintf("vm: translator: %v", err))
	}
	if tr.PageShift != t.shift {
		panic(fmt.Sprintf("vm: translator: page shift mismatch: got %d want %d", tr.PageShift, t.shift))
	}
	t.cache[vpn] = tr
	return tr
}

// Translate returns the physical address for va.
func (t *Translator) Translate(va uint64) uint64 {
	tr := t.Lookup(va)
	return tr.PageBase() | (va & ((1 << t.shift) - 1))
}
