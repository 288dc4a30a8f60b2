// Package difftest is the differential fuzzing harness (DESIGN.md §12): a
// seeded generator of well-formed random kernels and hardware
// configurations, an oracle that runs each sample through both the timing
// simulator and the order-independent reference interpreter (internal/ref)
// and diffs the outcomes, and a greedy minimiser that shrinks failures to a
// replayable test snippet.
//
// Generated programs are race-free by construction so the reference model's
// sequential thread order is a valid execution: loads read only the
// read-only data region, and every store lands in the storing thread's
// private 64-byte output record. Addresses are masked before scaling, so
// accesses are always in bounds and naturally aligned.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"gpummu/internal/config"
	"gpummu/internal/kernels"
)

// Register plan shared by every generated kernel. Random dataflow is
// confined to the value pool; everything else is structural scratch the
// generator owns.
const (
	rTid   = kernels.Reg(0)  // global thread id
	rN     = kernels.Reg(1)  // guard bound (Param2 = total threads)
	rCond  = kernels.Reg(2)  // branch condition scratch
	rAddr  = kernels.Reg(3)  // address scratch
	rVal0  = kernels.Reg(4)  // value pool r4..r11
	rLoop0 = kernels.Reg(12) // loop counters r12, r13 (one per nesting level)
	rData  = kernels.Reg(14) // read-only data region base (Param0)
	rOut   = kernels.Reg(15) // this thread's output record (Param1 + tid*64)
)

// valPool is the number of value-pool registers random ops read and write.
const valPool = 8

// outBytesPerThread is the size of each thread's private output record:
// four 8-byte store slots plus the epilogue's register fold at offset 32.
const outBytesPerThread = 64

type opKind uint8

const (
	opALU opKind = iota
	opLoad
	opStore
	opIf
	opLoop
	opBarrier
)

type aluOp uint8

const (
	aluAdd aluOp = iota
	aluSub
	aluMul
	aluAnd
	aluOr
	aluXor
	aluMin
	aluSltu
	aluSeq
	aluDiv
	aluRem
	aluAddImm
	aluMulImm
	aluAndImm
	aluShlImm
	aluShrImm
	aluSltuImm
	aluSeqImm
	numALUOps
)

type condKind uint8

const (
	condParity condKind = iota // rCond = v[a] & 1
	condBelow                  // rCond = v[a] < imm
	condEqual                  // rCond = v[a] == imm
	numCondKinds
)

// op is one node of the generated program tree. The tree is immutable after
// generation; Drop marks nodes excluded from emission, which is how the
// minimiser shrinks a sample without invalidating op ids.
type op struct {
	id        int
	kind      opKind
	alu       aluOp
	dst, a, b int // value-pool indices
	imm       int64
	size      uint8 // load/store access size (1, 4, or 8)
	slot      int   // store slot within the thread's output record (0..3)
	cond      condKind
	uniform   bool  // loop trip count independent of tid
	trips     int64 // uniform trip count (1..4)
	loopDepth int   // which loop counter register this loop owns
	body, els []*op
}

// valInit describes how one value-pool register is seeded in the prologue.
type valInit struct {
	kind int // 0 imm, 1 tid, 2 lane, 3 warp, 4 blockID, 5 blockDim, 6 tid*odd
	imm  int64
}

// Sample is one differential test case: a random program plus the machine
// configuration and launch geometry to run it under. Generate builds one
// deterministically from a seed; Diff is the oracle. The exported fields
// may be overridden before Diff (the minimiser shrinks them).
type Sample struct {
	Seed      uint64
	HW        config.Hardware
	Grid      int
	BlockDim  int
	DataWords int // power of two: elements in the read-only data region

	init    [valPool]valInit
	ops     []*op
	nextID  int
	dropped map[int]bool
}

func valReg(i int) kernels.Reg { return rVal0 + kernels.Reg(i) }

// Drop excludes the ops with the given ids (and, for control ops, their
// whole subtrees) from emission.
func (s *Sample) Drop(ids ...int) {
	if s.dropped == nil {
		s.dropped = make(map[int]bool)
	}
	for _, id := range ids {
		s.dropped[id] = true
	}
}

// AllOpIDs returns every op id in the program tree, dropped or not, in
// emission order.
func (s *Sample) AllOpIDs() []int {
	var ids []int
	var walk func(seq []*op)
	walk = func(seq []*op) {
		for _, o := range seq {
			ids = append(ids, o.id)
			walk(o.body)
			walk(o.els)
		}
	}
	walk(s.ops)
	return ids
}

// AliveOpIDs returns the ids of ops that would actually be emitted: not
// dropped themselves and under no dropped ancestor.
func (s *Sample) AliveOpIDs() []int {
	var ids []int
	var walk func(seq []*op)
	walk = func(seq []*op) {
		for _, o := range seq {
			if s.dropped[o.id] {
				continue
			}
			ids = append(ids, o.id)
			walk(o.body)
			walk(o.els)
		}
	}
	walk(s.ops)
	return ids
}

// Alive reports whether the op with the given id would be emitted.
func (s *Sample) Alive(id int) bool {
	for _, a := range s.AliveOpIDs() {
		if a == id {
			return true
		}
	}
	return false
}

// Clone returns a sample sharing the immutable program tree but with its
// own drop set and geometry, so minimisation trials don't disturb the
// original.
func (s *Sample) Clone() *Sample {
	c := *s
	c.dropped = make(map[int]bool, len(s.dropped))
	for id := range s.dropped {
		c.dropped[id] = true
	}
	return &c
}

// Program assembles the sample's kernel, honouring drops. The emitted
// program is a pure function of the tree and the drop set, so a repro
// snippet replays exactly.
func (s *Sample) Program() (*kernels.Program, error) {
	b := kernels.NewBuilder(fmt.Sprintf("difftest-%d", s.Seed))

	// Prologue: guard (uniform — Param2 equals the launch's thread count,
	// so it exercises a uniform branch without ever firing), base pointers,
	// per-thread output record, value-pool seeding.
	b.Special(rTid, kernels.SpecGlobalTID)
	b.Special(rN, kernels.SpecParam2)
	b.Sltu(rCond, rTid, rN)
	b.Bz(rCond, "exit", "exit")
	b.Special(rData, kernels.SpecParam0)
	b.Special(rOut, kernels.SpecParam1)
	b.ShlImm(rAddr, rTid, 6)
	b.Add(rOut, rOut, rAddr)
	for i, vi := range s.init {
		v := valReg(i)
		switch vi.kind {
		case 0:
			b.MovImm(v, vi.imm)
		case 1:
			b.Mov(v, rTid)
		case 2:
			b.Special(v, kernels.SpecLane)
		case 3:
			b.Special(v, kernels.SpecWarp)
		case 4:
			b.Special(v, kernels.SpecBlockID)
		case 5:
			b.Special(v, kernels.SpecBlockDim)
		default:
			b.MulImm(v, rTid, vi.imm)
		}
	}

	for _, o := range s.ops {
		s.emitOp(b, o)
	}

	// Epilogue: fold the whole value pool into one word and store it in
	// slot 4, so the memory diff also covers final register state.
	b.Mov(rAddr, valReg(0))
	for i := 1; i < valPool; i++ {
		b.Xor(rAddr, rAddr, valReg(i))
	}
	b.St(rOut, 32, rAddr, 8)
	b.Label("exit")
	b.Exit()
	return b.Build()
}

func (s *Sample) emitOp(b *kernels.Builder, o *op) {
	if s.dropped[o.id] {
		return
	}
	switch o.kind {
	case opALU:
		s.emitALU(b, o)
	case opLoad:
		// Mask-then-scale keeps every load in bounds and 8-aligned, so any
		// access size is naturally aligned.
		b.AndImm(rAddr, valReg(o.a), int64(s.DataWords-1))
		b.ShlImm(rAddr, rAddr, 3)
		b.Add(rAddr, rData, rAddr)
		b.Ld(valReg(o.dst), rAddr, 0, o.size)
	case opStore:
		b.St(rOut, int64(o.slot*8), valReg(o.a), o.size)
	case opBarrier:
		b.Bar()
	case opIf:
		s.emitCond(b, o)
		join := fmt.Sprintf("j%d", o.id)
		if len(o.els) > 0 {
			els := fmt.Sprintf("e%d", o.id)
			b.Bz(rCond, els, join)
			for _, c := range o.body {
				s.emitOp(b, c)
			}
			b.Jmp(join)
			b.Label(els)
			for _, c := range o.els {
				s.emitOp(b, c)
			}
		} else {
			b.Bz(rCond, join, join)
			for _, c := range o.body {
				s.emitOp(b, c)
			}
		}
		b.Label(join)
	case opLoop:
		rc := rLoop0 + kernels.Reg(o.loopDepth)
		if o.uniform {
			b.MovImm(rc, o.trips)
		} else {
			b.AndImm(rc, rTid, 3)
			b.AddImm(rc, rc, 1)
		}
		head := fmt.Sprintf("l%d", o.id)
		end := fmt.Sprintf("d%d", o.id)
		b.Label(head)
		for _, c := range o.body {
			s.emitOp(b, c)
		}
		b.AddImm(rc, rc, -1)
		b.Bnz(rc, head, end)
		b.Label(end)
	}
}

func (s *Sample) emitCond(b *kernels.Builder, o *op) {
	switch o.cond {
	case condParity:
		b.AndImm(rCond, valReg(o.a), 1)
	case condBelow:
		b.SltuImm(rCond, valReg(o.a), o.imm)
	default:
		b.SeqImm(rCond, valReg(o.a), o.imm)
	}
}

func (s *Sample) emitALU(b *kernels.Builder, o *op) {
	d, a, r := valReg(o.dst), valReg(o.a), valReg(o.b)
	switch o.alu {
	case aluAdd:
		b.Add(d, a, r)
	case aluSub:
		b.Sub(d, a, r)
	case aluMul:
		b.Mul(d, a, r)
	case aluAnd:
		b.And(d, a, r)
	case aluOr:
		b.Or(d, a, r)
	case aluXor:
		b.Xor(d, a, r)
	case aluMin:
		b.Min(d, a, r)
	case aluSltu:
		b.Sltu(d, a, r)
	case aluSeq:
		b.Seq(d, a, r)
	case aluDiv:
		b.Div(d, a, r)
	case aluRem:
		b.Rem(d, a, r)
	case aluAddImm:
		b.AddImm(d, a, o.imm)
	case aluMulImm:
		b.MulImm(d, a, o.imm)
	case aluAndImm:
		b.AndImm(d, a, o.imm)
	case aluShlImm:
		b.ShlImm(d, a, o.imm)
	case aluShrImm:
		b.ShrImm(d, a, o.imm)
	case aluSltuImm:
		b.SltuImm(d, a, o.imm)
	default:
		b.SeqImm(d, a, o.imm)
	}
}

// Describe returns a one-line summary of the sample's configuration for
// soak-run progress output and failure reports.
func (s *Sample) Describe() string {
	return fmt.Sprintf("seed=%d sched=%s tbc=%s pshift=%d mmu=%s launch=%dx%d data=%d ops=%d",
		s.Seed, s.HW.Sched.Policy, s.HW.TBC.Mode, s.HW.PageShift,
		mmuBrief(s.HW.MMU), s.Grid, s.BlockDim, s.DataWords,
		len(s.AliveOpIDs()))
}

func mmuBrief(m config.MMU) string {
	switch {
	case !m.Enabled:
		return "off"
	case m.IdealLatency:
		return "ideal"
	case m.SoftwareWalks:
		return fmt.Sprintf("sw/%de", m.Entries)
	case m.SharedTLBEntries > 0:
		return fmt.Sprintf("aug+stlb/%de", m.Entries)
	case m.PWCEntries > 0:
		return fmt.Sprintf("aug+pwc/%de", m.Entries)
	case m.HitsUnderMiss:
		return fmt.Sprintf("aug/%de", m.Entries)
	default:
		return fmt.Sprintf("naive/%de", m.Entries)
	}
}

// ReproSnippet returns a self-contained Go test replaying this sample,
// including any geometry overrides and dropped ops — what the minimiser
// and the soak CLI print on failure.
func (s *Sample) ReproSnippet() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func TestRepro%d(t *testing.T) {\n", s.Seed)
	fmt.Fprintf(&b, "\ts := difftest.Generate(%d)\n", s.Seed)
	fmt.Fprintf(&b, "\ts.Grid, s.BlockDim = %d, %d\n", s.Grid, s.BlockDim)
	if len(s.dropped) > 0 {
		ids := make([]int, 0, len(s.dropped))
		for id := range s.dropped {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprint(id)
		}
		fmt.Fprintf(&b, "\ts.Drop(%s)\n", strings.Join(parts, ", "))
	}
	b.WriteString("\tif err := s.Diff(context.Background()); err != nil {\n")
	b.WriteString("\t\tt.Fatal(err)\n\t}\n}\n")
	return b.String()
}
