package difftest

import (
	"context"
	"fmt"

	"gpummu"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/ref"
	"gpummu/internal/vm"
)

const (
	// maxRefSteps bounds one thread in the reference interpreter. Generated
	// programs run a few hundred dynamic instructions at most; hitting this
	// means the generator produced a runaway loop, which is itself a bug.
	maxRefSteps = 1 << 16
	// diffMaxCycles / diffWatchdog bound the timing run so a hung sample
	// surfaces as a typed abort instead of wedging the fuzzer.
	diffMaxCycles = 200_000_000
	diffWatchdog  = 10_000_000
)

// build constructs a fresh address space and launch for the sample. It is
// deterministic: two calls produce byte-identical initial memory images
// (Diff asserts this), which is what makes the reference and timing runs
// comparable.
func (s *Sample) build() (*vm.AddressSpace, *kernels.Launch, error) {
	prog, err := s.Program()
	if err != nil {
		return nil, nil, fmt.Errorf("emitting program: %w", err)
	}
	as := vm.NewAddressSpace(vm.NewPhysMem(), vm.NewFrameAllocator(1<<23), s.HW.PageShift)
	rng := engine.NewRNG(s.Seed ^ 0xD1F7_DA7A)
	data := as.Malloc(uint64(s.DataWords) * 8)
	for i := 0; i < s.DataWords; i++ {
		as.Write64(data+uint64(i)*8, rng.Uint64())
	}
	threads := s.Grid * s.BlockDim
	out := as.Malloc(uint64(threads) * outBytesPerThread)
	l := &kernels.Launch{Program: prog, Grid: s.Grid, BlockDim: s.BlockDim}
	l.Params[0] = data
	l.Params[1] = out
	l.Params[2] = uint64(threads)
	return as, l, nil
}

// Diff is the oracle: it runs the sample through the reference interpreter
// and the timing simulator on independently built but identical address
// spaces and compares final memory images (which, via the epilogue fold,
// also cover final register state), page-table digests (neither run may
// mutate translations), and fault behaviour of the two page walkers. A nil
// return means the sample agrees end to end; any divergence, abort, or
// invariant violation is an error.
func (s *Sample) Diff(ctx context.Context) error {
	if err := s.HW.Validate(); err != nil {
		return fmt.Errorf("generated config invalid: %w", err)
	}

	asRef, lRef, err := s.build()
	if err != nil {
		return err
	}
	preMem := ref.MemDigest(asRef)
	prePT := ref.PageTableDigest(asRef.Mem, asRef.PT.CR3())

	refRes, err := ref.Execute(asRef, lRef, s.HW.WarpWidth, maxRefSteps)
	if err != nil {
		return fmt.Errorf("reference model: %w", err)
	}
	if d := ref.PageTableDigest(asRef.Mem, asRef.PT.CR3()); d != prePT {
		return fmt.Errorf("reference run mutated the page table (digest %#x -> %#x)", prePT, d)
	}
	want := ref.MemDigest(asRef)

	asSim, lSim, err := s.build()
	if err != nil {
		return err
	}
	if d := ref.MemDigest(asSim); d != preMem {
		return fmt.Errorf("non-deterministic build: initial memory digest %#x then %#x", preMem, d)
	}
	if d := ref.PageTableDigest(asSim.Mem, asSim.PT.CR3()); d != prePT {
		return fmt.Errorf("non-deterministic build: page table digest %#x then %#x", prePT, d)
	}

	_, err = gpummu.Run(ctx,
		gpummu.WithConfig(s.HW),
		gpummu.WithKernel(asSim, lSim),
		gpummu.WithInvariants(),
		gpummu.WithMaxCycles(diffMaxCycles),
		gpummu.WithWatchdog(diffWatchdog))
	if err != nil {
		return fmt.Errorf("timing simulator: %w", err)
	}
	if d := ref.PageTableDigest(asSim.Mem, asSim.PT.CR3()); d != prePT {
		return fmt.Errorf("timing run mutated the page table (digest %#x -> %#x)", prePT, d)
	}

	if got := ref.MemDigest(asSim); got != want {
		if va, av, bv, ok := ref.FirstMemDiff(asRef, asSim); ok {
			return fmt.Errorf("memory image diverged (%d reference steps): first difference at va %#x: ref=%#x sim=%#x",
				refRes.Steps, va, av, bv)
		}
		return fmt.Errorf("memory digests diverged (%#x vs %#x) but the byte scan found no difference", want, got)
	}

	// Fault-agreement probe: the hardware walker and the reference walker
	// must also agree on an address the kernel never touches. The page below
	// the heap base is never mapped.
	probe := asSim.HeapBase() - (uint64(1) << s.HW.PageShift)
	tr, werr := asSim.PT.Walk(probe)
	rw := ref.WalkPage(asSim.Mem, asSim.PT.CR3(), probe)
	if (werr != nil) != rw.Fault {
		return fmt.Errorf("fault disagreement at va %#x: page table err=%v, reference fault=%t", probe, werr, rw.Fault)
	}
	if werr != nil && rw.FaultLevel != tr.Levels-1 {
		return fmt.Errorf("fault level disagreement at va %#x: page table level %d, reference level %d",
			probe, tr.Levels-1, rw.FaultLevel)
	}
	return nil
}

// Minimise greedily shrinks a failing sample while the fails oracle keeps
// returning true: launch geometry first, then individual ops. It iterates
// to a fixpoint (bounded) and returns the smallest failing clone; the
// input sample is not modified.
func Minimise(s *Sample, fails func(*Sample) bool) *Sample {
	cur := s.Clone()
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, g := range []int{1, cur.Grid / 2} {
			if g >= 1 && g < cur.Grid {
				c := cur.Clone()
				c.Grid = g
				if fails(c) {
					cur = c
					changed = true
					break
				}
			}
		}
		for _, bd := range []int{1, 8, cur.BlockDim / 2} {
			if bd >= 1 && bd < cur.BlockDim {
				c := cur.Clone()
				c.BlockDim = bd
				if fails(c) {
					cur = c
					changed = true
					break
				}
			}
		}
		for _, id := range cur.AliveOpIDs() {
			c := cur.Clone()
			c.Drop(id)
			if fails(c) {
				cur = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return cur
}
