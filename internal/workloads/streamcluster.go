package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// buildStreamcluster reproduces the Rodinia streamcluster distance kernel:
// every thread computes the cost of assigning its point to each of a small
// set of candidate centres. Unlike kmeans, the centres are *point indices*,
// so centre features are gathered through an indirection. Data is
// feature-major with warp-scattered point assignment (see scatter.go),
// giving the large streaming footprint the paper reports.
func init() { Register("streamcluster", buildStreamcluster) }

func buildStreamcluster(env *Env) (*Workload, error) {
	p := env.scale(4<<10, 256<<10, 1<<20, 4<<20)
	f := env.scale(4, 4, 4, 8)
	k := 4

	points := make([]uint32, p*f) // feature-major
	for i := range points {
		points[i] = uint32(env.RNG.Uint64n(1 << 16))
	}
	cidx := make([]uint64, k)
	for i := range cidx {
		cidx[i] = env.RNG.Uint64n(uint64(p))
	}

	as := env.AS
	ptsVA := as.Malloc(uint64(len(points)) * 4)
	cidxVA := as.Malloc(uint64(k) * 8)
	costVA := as.Malloc(uint64(p) * 8)
	as.Writer(ptsVA).U32s(points)
	as.Writer(cidxVA).U64s(cidx)

	blockDim := 256
	l := &kernels.Launch{Program: streamclusterKernel(p, f, k), Grid: gridFor(p, blockDim), BlockDim: blockDim}
	l.Params[0] = ptsVA
	l.Params[1] = cidxVA
	l.Params[2] = costVA

	check := func() error {
		for _, pi := range []int{1, p / 2, p - 2} {
			best := ^uint64(0)
			for ki := 0; ki < k; ki++ {
				var acc uint64
				ci := int(cidx[ki])
				for fi := 0; fi < f; fi++ {
					d := uint64(points[fi*p+pi]) - uint64(points[fi*p+ci])
					acc += d * d
				}
				if acc < best {
					best = acc
				}
			}
			if got := as.Read64(costVA + uint64(pi)*8); got != best {
				return fmt.Errorf("streamcluster: point %d cost %d, want %d", pi, got, best)
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

func streamclusterKernel(p, f, k int) *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rCond kernels.Reg = 2
		rKi   kernels.Reg = 5
		rFi   kernels.Reg = 6
		rAcc  kernels.Reg = 7
		rBest kernels.Reg = 8
		rPtA  kernels.Reg = 9
		rCnA  kernels.Reg = 10
		rA    kernels.Reg = 11
		rB    kernels.Reg = 12
		rD    kernels.Reg = 13
		rTmp  kernels.Reg = 14
		rBase kernels.Reg = 15
		rCi   kernels.Reg = 16
		rPt   kernels.Reg = 17
	)
	b := kernels.NewBuilder("streamcluster")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.SltuImm(rCond, rTid, int64(p))
	b.Bz(rCond, "done", "done")
	emitScatteredIndex(b, rPt, rTmp, p, 2)

	b.MovImm(rBest, -1)
	b.MovImm(rKi, 0)

	b.Label("kloop")
	// centre index = cidx[ki]; centre features live in the points array.
	b.ShlImm(rTmp, rKi, 3)
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rTmp, rTmp, rBase)
	b.Ld(rCi, rTmp, 0, 8)
	b.ShlImm(rCnA, rCi, 2)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rCnA, rCnA, rBase)
	// point cursor (feature-major: advance by P*4 per feature)
	b.ShlImm(rTmp, rPt, 2)
	b.Add(rPtA, rTmp, rBase)
	b.MovImm(rAcc, 0)
	b.MovImm(rFi, 0)

	b.Label("floop")
	b.Ld(rA, rPtA, 0, 4)
	b.Ld(rB, rCnA, 0, 4)
	b.Sub(rD, rA, rB)
	b.Mul(rD, rD, rD)
	b.Add(rAcc, rAcc, rD)
	b.AddImm(rPtA, rPtA, int64(p)*4)
	b.AddImm(rCnA, rCnA, int64(p)*4)
	b.AddImm(rFi, rFi, 1)
	b.SltuImm(rCond, rFi, int64(f))
	b.Bnz(rCond, "floop", "fend")
	b.Label("fend")

	b.Min(rBest, rBest, rAcc)
	b.AddImm(rKi, rKi, 1)
	b.SltuImm(rCond, rKi, int64(k))
	b.Bnz(rCond, "kloop", "kend")
	b.Label("kend")

	b.ShlImm(rTmp, rPt, 3)
	b.Special(rBase, kernels.SpecParam2)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rBest, 8)

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}
