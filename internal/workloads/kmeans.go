package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// buildKMeans reproduces the Rodinia kmeans assignment kernel: each thread
// computes the squared distance of its point to every centroid and records
// the closest. Like Rodinia, features are stored feature-major (column
// arrays of all points), so a thread's features sit megabytes apart; with
// warp-scattered point assignment the per-core page working set cycles far
// beyond a 128-entry TLB each pass — the moderate-miss-rate streaming
// profile the paper reports for kmeans.
func init() { Register("kmeans", buildKMeans) }

func buildKMeans(env *Env) (*Workload, error) {
	p := env.scale(4<<10, 256<<10, 1<<20, 4<<20)
	f := env.scale(4, 4, 4, 8)
	k := env.scale(3, 4, 4, 8)

	// Feature-major: column c holds feature c of every point.
	points := make([]uint32, p*f)
	for i := range points {
		points[i] = uint32(env.RNG.Uint64n(1 << 16))
	}
	cents := make([]uint32, k*f) // centroid-major (small, cached)
	for i := range cents {
		cents[i] = uint32(env.RNG.Uint64n(1 << 16))
	}

	as := env.AS
	ptsVA := as.Malloc(uint64(len(points)) * 4)
	cenVA := as.Malloc(uint64(len(cents)) * 4)
	asgVA := as.Malloc(uint64(p) * 8)
	as.Writer(ptsVA).U32s(points)
	as.Writer(cenVA).U32s(cents)

	prog := kmeansKernel(p, f, k)
	blockDim := 256
	l := &kernels.Launch{Program: prog, Grid: gridFor(p, blockDim), BlockDim: blockDim}
	l.Params[0] = ptsVA
	l.Params[1] = cenVA
	l.Params[2] = asgVA

	check := func() error {
		// Spot-check assignments against a host-side computation.
		for _, pi := range []int{0, p / 3, p - 1} {
			best, bestK := ^uint64(0), 0
			for ki := 0; ki < k; ki++ {
				var acc uint64
				for fi := 0; fi < f; fi++ {
					a := uint64(points[fi*p+pi])
					b := uint64(cents[ki*f+fi])
					d := a - b
					acc += d * d
				}
				if acc < best {
					best, bestK = acc, ki
				}
			}
			got := as.Read64(asgVA + uint64(pi)*8)
			if got != uint64(bestK) {
				return fmt.Errorf("kmeans: point %d assigned %d, want %d", pi, got, bestK)
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

// kmeansKernel assembles the assignment kernel over feature-major data.
func kmeansKernel(p, f, k int) *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rCond kernels.Reg = 2
		rKi   kernels.Reg = 5
		rFi   kernels.Reg = 6
		rAcc  kernels.Reg = 7
		rBest kernels.Reg = 8
		rBK   kernels.Reg = 9
		rPtA  kernels.Reg = 10 // running point feature address (stride P*4)
		rCnA  kernels.Reg = 11 // running centroid feature address
		rA    kernels.Reg = 12
		rB    kernels.Reg = 13
		rD    kernels.Reg = 14
		rTmp  kernels.Reg = 15
		rBase kernels.Reg = 16
		rPt   kernels.Reg = 17 // scattered point index
	)
	b := kernels.NewBuilder("kmeans")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.SltuImm(rCond, rTid, int64(p))
	b.Bz(rCond, "done", "done")
	emitScatteredIndex(b, rPt, rTmp, p, 2)

	b.MovImm(rBest, -1) // max uint64
	b.MovImm(rBK, 0)
	b.MovImm(rKi, 0)

	b.Label("kloop")
	b.MovImm(rAcc, 0)
	b.MovImm(rFi, 0)
	// centroid cursor = cen + ki*F*4
	b.MulImm(rTmp, rKi, int64(f)*4)
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rCnA, rTmp, rBase)
	// point cursor = pts + p*4 (column 0); advances by P*4 per feature
	b.ShlImm(rTmp, rPt, 2)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rPtA, rTmp, rBase)

	b.Label("floop")
	b.Ld(rA, rPtA, 0, 4)
	b.Ld(rB, rCnA, 0, 4)
	b.Sub(rD, rA, rB)
	b.Mul(rD, rD, rD)
	b.Add(rAcc, rAcc, rD)
	b.AddImm(rPtA, rPtA, int64(p)*4)
	b.AddImm(rCnA, rCnA, 4)
	b.AddImm(rFi, rFi, 1)
	b.SltuImm(rCond, rFi, int64(f))
	b.Bnz(rCond, "floop", "fend")
	b.Label("fend")

	// best update
	b.Sltu(rCond, rAcc, rBest)
	b.Bz(rCond, "kNext", "kNext")
	b.Mov(rBest, rAcc)
	b.Mov(rBK, rKi)
	b.Label("kNext")
	b.AddImm(rKi, rKi, 1)
	b.SltuImm(rCond, rKi, int64(k))
	b.Bnz(rCond, "kloop", "kend")
	b.Label("kend")

	// assign[p] = bestK
	b.ShlImm(rTmp, rPt, 3)
	b.Special(rBase, kernels.SpecParam2)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rBK, 8)

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}
