package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// buildPathfinder reproduces the Rodinia pathfinder grid dynamic program:
// each thread owns a column and relaxes it row by row against the three
// neighbours of the previous row, with a block barrier between rows. The
// access pattern is fully coalesced streaming, which is why pathfinder has
// the lowest TLB overheads in the paper.
func init() { Register("pathfinder", buildPathfinder) }

func buildPathfinder(env *Env) (*Workload, error) {
	cols := env.scale(2<<10, 256<<10, 1<<20, 2<<20)
	rows := env.scale(6, 8, 10, 14)

	data := make([]uint32, rows*cols)
	for i := range data {
		data[i] = uint32(env.RNG.Uint64n(64))
	}

	as := env.AS
	dataVA := as.Malloc(uint64(len(data)) * 4)
	// Two cost buffers, alternating per row.
	costVA := [2]uint64{as.Malloc(uint64(cols) * 4), as.Malloc(uint64(cols) * 4)}
	as.Writer(dataVA).U32s(data)
	as.Writer(costVA[0]).U32s(data[:cols])

	blockDim := 256
	l := &kernels.Launch{Program: pathfinderKernel(cols, rows), Grid: gridFor(cols, blockDim), BlockDim: blockDim}
	l.Params[0] = dataVA
	l.Params[1] = costVA[0]
	l.Params[2] = costVA[1]

	check := func() error {
		// Recompute on the host. Warps own 32-column stripes and only
		// synchronise per block, so stripe-edge columns can read a
		// neighbouring stripe's rows with skew (the same boundary race the
		// real pathfinder kernel has across thread blocks). A column's
		// value depends on initial columns within ±(rows-1), so only
		// columns whose stripe offset keeps that cone inside one warp are
		// deterministic; we check those.
		prev := make([]uint64, cols)
		cur := make([]uint64, cols)
		for c := 0; c < cols; c++ {
			prev[c] = uint64(data[c])
		}
		for r := 1; r < rows; r++ {
			for c := 0; c < cols; c++ {
				best := prev[c]
				if c > 0 && prev[c-1] < best {
					best = prev[c-1]
				}
				if c+1 < cols && prev[c+1] < best {
					best = prev[c+1]
				}
				cur[c] = best + uint64(data[r*cols+c])
			}
			prev, cur = cur, prev
		}
		final := costVA[(rows-1)%2]
		// Stripe offset 16 is at least rows-1 (max 14) from both stripe
		// edges, so the dependence cone stays within one warp's columns.
		for _, c := range []int{16, 2064, 100016} {
			if c >= cols-1 {
				continue
			}
			if got := uint64(as.Read32(final + uint64(c)*4)); got != prev[c] {
				return fmt.Errorf("pathfinder: col %d = %d, want %d", c, got, prev[c])
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

// pathfinderKernel relaxes rows 1..rows-1 with a barrier between rows.
// Buffers alternate: src = P1 on even r-1, P2 on odd.
func pathfinderKernel(cols, rows int) *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rCol  kernels.Reg = 1
		rCond kernels.Reg = 2
		rR    kernels.Reg = 4
		rSrc  kernels.Reg = 5
		rDst  kernels.Reg = 6
		rBest kernels.Reg = 7
		rV    kernels.Reg = 8
		rTmp  kernels.Reg = 9
		rAddr kernels.Reg = 10
		rData kernels.Reg = 11
		rPar  kernels.Reg = 13 // parity
		rB0   kernels.Reg = 14
		rB1   kernels.Reg = 15
	)
	b := kernels.NewBuilder("pathfinder")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.Special(rB0, kernels.SpecParam1)
	b.Special(rB1, kernels.SpecParam2)
	emitScatteredIndex(b, rCol, rTmp, cols, 2)
	b.MovImm(rR, 1)

	b.Label("rowloop")
	// Pick src/dst by parity of r-1.
	b.AddImm(rPar, rR, -1)
	b.AndImm(rPar, rPar, 1)
	b.Bnz(rPar, "odd", "picked")
	b.Mov(rSrc, rB0)
	b.Mov(rDst, rB1)
	b.Jmp("picked")
	b.Label("odd")
	b.Mov(rSrc, rB1)
	b.Mov(rDst, rB0)
	b.Label("picked")

	// In-range threads do the relaxation; all threads hit the barrier.
	b.SltuImm(rCond, rTid, int64(cols))
	b.Bz(rCond, "sync", "sync")

	// best = src[col]
	b.ShlImm(rAddr, rCol, 2)
	b.Add(rAddr, rAddr, rSrc)
	b.Ld(rBest, rAddr, 0, 4)
	// left neighbour
	b.Bz(rCol, "noleft", "noleft")
	b.Ld(rV, rAddr, -4, 4)
	b.Min(rBest, rBest, rV)
	b.Label("noleft")
	// right neighbour
	b.SeqImm(rCond, rCol, int64(cols-1))
	b.Bnz(rCond, "noright", "noright")
	b.Ld(rV, rAddr, 4, 4)
	b.Min(rBest, rBest, rV)
	b.Label("noright")
	// data[r*cols+col]
	b.MulImm(rTmp, rR, int64(cols))
	b.Add(rTmp, rTmp, rCol)
	b.ShlImm(rTmp, rTmp, 2)
	b.Special(rAddr, kernels.SpecParam0)
	b.Add(rTmp, rTmp, rAddr)
	b.Ld(rData, rTmp, 0, 4)
	b.Add(rBest, rBest, rData)
	// dst[col] = best
	b.ShlImm(rAddr, rCol, 2)
	b.Add(rAddr, rAddr, rDst)
	b.St(rAddr, 0, rBest, 4)

	b.Label("sync")
	b.Bar()
	b.AddImm(rR, rR, 1)
	b.SltuImm(rCond, rR, int64(rows))
	b.Bnz(rCond, "rowloop", "end")
	b.Label("end")
	b.Exit()
	return b.MustBuild()
}
