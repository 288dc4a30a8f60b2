package difftest

import (
	"gpummu/internal/config"
	"gpummu/internal/engine"
)

// Generate builds the sample for a seed: hardware configuration, launch
// geometry, and program tree are all deterministic functions of the seed,
// so a failing seed replays exactly anywhere.
func Generate(seed uint64) *Sample {
	rng := engine.NewRNG(seed)
	s := &Sample{Seed: seed}

	hw := config.SmallTest()
	hw.NumCores = []int{1, 2, 4}[rng.Intn(3)]
	hw.WarpsPerCore = []int{4, 8}[rng.Intn(2)]
	if rng.Intn(2) == 1 {
		hw.PageShift = 21
	}
	hw.MMU = genMMU(rng)
	switch rng.Intn(5) {
	case 0:
		hw.Sched.Policy = config.SchedLRR
	case 1:
		hw.Sched.Policy = config.SchedGTO
	case 2:
		hw.Sched.Policy = config.SchedCCWS
	case 3:
		hw.Sched.Policy = config.SchedTACCWS
		hw.Sched.TLBMissWeight = 8
	default:
		hw.Sched.Policy = config.SchedTCWS
		hw.Sched.LRUDepthWeights = []int{1, 2, 4, 8}
	}
	hw.TBC.Mode = []config.DivergenceMode{
		config.DivStack, config.DivTBC, config.DivTLBTBC,
	}[rng.Intn(3)]
	s.HW = hw

	// This draw once chose the core-ticking worker count, which no longer
	// exists. It is still consumed so that every seed, and the committed
	// testdata/fuzz corpus, keeps generating the same sample.
	rng.Intn(2)
	s.Grid = 1 + rng.Intn(4)
	s.BlockDim = []int{8, 16, 32, 64, 128}[rng.Intn(5)]
	s.DataWords = []int{256, 1024, 4096}[rng.Intn(3)]

	for i := range s.init {
		vi := valInit{kind: rng.Intn(7)}
		switch vi.kind {
		case 0:
			vi.imm = int64(rng.Uint64n(1 << 32))
		case 6:
			vi.imm = int64(rng.Uint64n(1<<16))*2 + 1 // odd multiplier
		}
		s.init[i] = vi
	}

	budget := 12 + rng.Intn(28)
	s.ops = s.genSeq(rng, &budget, 0, 0)
	return s
}

// genMMU rolls one point in the paper's MMU design space, spanning the
// no-TLB baseline, the naive and augmented per-core designs, the shared-TLB
// and page-walk-cache extensions, the impractical ideal, and software walks.
func genMMU(rng *engine.RNG) config.MMU {
	var m config.MMU
	switch rng.Intn(8) {
	case 0:
		return config.MMU{} // disabled: zero-cost translation baseline
	case 1:
		m = config.NaiveMMU(3)
	case 2:
		m = config.NaiveMMU(4)
		m.NumPTWs = 2
	case 3:
		m = config.AugmentedMMU()
	case 4:
		m = config.AugmentedMMU()
		m.SharedTLBEntries = 256
		m.SharedTLBLatency = 8
	case 5:
		m = config.AugmentedMMU()
		m.PWCEntries = 16
	case 6:
		return config.MMU{}.Ideal()
	default:
		m = config.NaiveMMU(4)
		m.SoftwareWalks = true
		m.SoftwareWalkOverhead = 100
	}
	m.Entries = []int{16, 64, 128}[rng.Intn(3)]
	m.MSHRs = []int{2, 8, 32}[rng.Intn(3)]
	m.WalkConcurrency = []int{1, 4}[rng.Intn(2)]
	return m
}

// genSeq emits a short straight-line sequence of ops at one nesting level.
func (s *Sample) genSeq(rng *engine.RNG, budget *int, depth, loopDepth int) []*op {
	var seq []*op
	n := 1 + rng.Intn(6)
	for i := 0; i < n && *budget > 0; i++ {
		seq = append(seq, s.genOp(rng, budget, depth, loopDepth))
	}
	return seq
}

var accessSizes = [...]uint8{1, 4, 8}

func (s *Sample) genOp(rng *engine.RNG, budget *int, depth, loopDepth int) *op {
	*budget--
	o := &op{id: s.nextID}
	s.nextID++
	roll := rng.Intn(100)
	switch {
	case roll < 40:
		s.fillALU(rng, o)
	case roll < 60:
		o.kind = opLoad
		o.dst = rng.Intn(valPool)
		o.a = rng.Intn(valPool)
		o.size = accessSizes[rng.Intn(3)]
	case roll < 72:
		o.kind = opStore
		o.a = rng.Intn(valPool)
		o.size = accessSizes[rng.Intn(3)]
		o.slot = rng.Intn(4)
	case roll < 87 && depth < 2:
		o.kind = opIf
		o.cond = condKind(rng.Intn(int(numCondKinds)))
		o.a = rng.Intn(valPool)
		o.imm = int64(rng.Uint64n(64))
		o.body = s.genSeq(rng, budget, depth+1, loopDepth)
		if rng.Intn(2) == 1 {
			o.els = s.genSeq(rng, budget, depth+1, loopDepth)
		}
	case roll < 97 && depth < 2 && loopDepth < 2:
		o.kind = opLoop
		o.loopDepth = loopDepth
		o.uniform = rng.Intn(2) == 1
		o.trips = 1 + int64(rng.Intn(4))
		o.body = s.genSeq(rng, budget, depth+1, loopDepth+1)
	default:
		if depth == 0 && roll >= 87 {
			// Barriers only at top level, outside divergent control flow;
			// the reference model's no-op barrier is valid because generated
			// kernels never communicate through memory.
			o.kind = opBarrier
		} else {
			s.fillALU(rng, o)
		}
	}
	return o
}

func (s *Sample) fillALU(rng *engine.RNG, o *op) {
	o.kind = opALU
	o.alu = aluOp(rng.Intn(int(numALUOps)))
	o.dst = rng.Intn(valPool)
	o.a = rng.Intn(valPool)
	o.b = rng.Intn(valPool)
	switch o.alu {
	case aluShlImm, aluShrImm:
		o.imm = int64(rng.Intn(64))
	default:
		o.imm = int64(rng.Uint64n(1 << 20))
	}
}
