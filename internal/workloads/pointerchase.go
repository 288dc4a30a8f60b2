package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// buildPointerChase is a microbenchmark (not in the paper's set): every
// thread chases a random permutation ring for a fixed number of hops. It
// produces maximal page divergence and near-zero locality — a worst-case
// probe for TLB designs, used by examples and tests.
func init() { Register("pointerchase", buildPointerChase) }

func buildPointerChase(env *Env) (*Workload, error) {
	nodes := env.scale(4<<10, 1<<20, 4<<20, 16<<20)
	threads := env.scale(1<<10, 32<<10, 64<<10, 128<<10)
	hops := env.scale(8, 16, 24, 32)

	// Random permutation ring: ring[i] = successor of i.
	perm := make([]uint64, nodes)
	for i := range perm {
		perm[i] = uint64(i)
	}
	env.RNG.Shuffle(nodes, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	ring := make([]uint64, nodes)
	for i := 0; i < nodes; i++ {
		ring[perm[i]] = perm[(i+1)%nodes]
	}

	as := env.AS
	ringVA := as.Malloc(uint64(nodes) * 8)
	outVA := as.Malloc(uint64(threads) * 8)
	as.Writer(ringVA).U64s(ring)

	blockDim := 256
	l := &kernels.Launch{Program: chaseKernel(), Grid: gridFor(threads, blockDim), BlockDim: blockDim}
	l.Params[0] = ringVA
	l.Params[1] = outVA
	l.Params[2] = uint64(threads)
	l.Params[3] = uint64(hops)
	l.Params[4] = uint64(nodes)

	check := func() error {
		for _, t := range []int{0, threads - 1} {
			cur := uint64(t*2497) % uint64(nodes)
			for h := 0; h < hops; h++ {
				cur = ring[cur]
			}
			if got := as.Read64(outVA + uint64(t)*8); got != cur {
				return fmt.Errorf("pointerchase: thread %d landed on %d, want %d", t, got, cur)
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

func chaseKernel() *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rN    kernels.Reg = 1
		rCond kernels.Reg = 2
		rCur  kernels.Reg = 3
		rHops kernels.Reg = 4
		rH    kernels.Reg = 5
		rTmp  kernels.Reg = 6
		rBase kernels.Reg = 7
		rNode kernels.Reg = 8
	)
	b := kernels.NewBuilder("pointerchase")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.Special(rN, kernels.SpecParam2)
	b.Sltu(rCond, rTid, rN)
	b.Bz(rCond, "done", "done")

	// cur = (tid*2497) % nodes
	b.MulImm(rCur, rTid, 2497)
	b.Special(rNode, kernels.SpecParam4)
	b.Rem(rCur, rCur, rNode)
	b.Special(rHops, kernels.SpecParam3)
	b.MovImm(rH, 0)

	b.Label("loop")
	b.ShlImm(rTmp, rCur, 3)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rTmp, rTmp, rBase)
	b.Ld(rCur, rTmp, 0, 8)
	b.AddImm(rH, rH, 1)
	b.Sltu(rCond, rH, rHops)
	b.Bnz(rCond, "loop", "end")
	b.Label("end")

	b.ShlImm(rTmp, rTid, 3)
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rCur, 8)

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}
