package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// levelINF marks an unvisited node in the bfs level array.
const levelINF = 1 << 40

// buildBFS reproduces Rodinia bfs: level-synchronous breadth-first search
// over a CSR graph. One thread owns one node (warp-scattered, see
// scatter.go); frontier membership is a divergent branch; neighbour gathers
// are data-dependent scatters across the level array — the access pattern
// behind bfs's high page divergence and TLB miss rate in the paper's
// figure 3.
func init() { Register("bfs", buildBFS) }

func buildBFS(env *Env) (*Workload, error) {
	n := env.scale(2<<10, 64<<10, 256<<10, 1<<20)
	avgDeg := env.scale(4, 8, 12, 16)

	// Power-law-ish degree sequence: a few hubs, many low-degree nodes.
	deg := make([]int, n)
	total := 0
	for i := range deg {
		d := 1 + env.RNG.Intn(2*avgDeg)
		if env.RNG.Intn(64) == 0 {
			d *= 8 // hub
		}
		deg[i] = d
		total += d
	}

	rowPtr := make([]uint64, n+1)
	adj := make([]uint64, total)
	for i, d := range deg {
		rowPtr[i+1] = rowPtr[i] + uint64(d)
		for j := 0; j < d; j++ {
			adj[rowPtr[i]+uint64(j)] = env.RNG.Uint64n(uint64(n))
		}
	}

	// Host-side BFS from node 0 to find a level with a large frontier.
	level := make([]uint64, n)
	for i := range level {
		level[i] = levelINF
	}
	level[0] = 0
	frontier := []int{0}
	curLevel := uint64(0)
	bestLevel, bestSize := uint64(0), 1
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for e := rowPtr[u]; e < rowPtr[u+1]; e++ {
				v := int(adj[e])
				if level[v] == levelINF {
					level[v] = curLevel + 1
					next = append(next, v)
				}
			}
		}
		curLevel++
		if len(next) > bestSize {
			bestSize = len(next)
			bestLevel = curLevel
		}
		frontier = next
	}
	// Reset levels beyond the chosen frontier so the kernel has work.
	for i := range level {
		if level[i] > bestLevel {
			level[i] = levelINF
		}
	}

	as := env.AS
	rowPtrVA := as.Malloc(uint64(len(rowPtr)) * 8)
	adjVA := as.Malloc(uint64(len(adj)) * 8)
	levelVA := as.Malloc(uint64(n) * 8)
	as.Writer(rowPtrVA).U64s(rowPtr)
	as.Writer(adjVA).U64s(adj)
	as.Writer(levelVA).U64s(level)

	prog := bfsKernel(n)
	blockDim := 256
	l := &kernels.Launch{
		Program:  prog,
		Grid:     gridFor(n, blockDim),
		BlockDim: blockDim,
	}
	l.Params[0] = rowPtrVA
	l.Params[1] = adjVA
	l.Params[2] = levelVA
	l.Params[3] = bestLevel

	check := func() error {
		// Every neighbour of a frontier node must now be visited.
		got := make([]uint64, n)
		as.ReadU64s(levelVA, got)
		for u, lu := range got {
			if lu != bestLevel {
				continue
			}
			for e := rowPtr[u]; e < rowPtr[u+1]; e++ {
				v := adj[e]
				if got[v] == levelINF {
					return fmt.Errorf("bfs: neighbour %d of frontier node %d left unvisited", v, u)
				}
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

// bfsKernel assembles the level-expansion kernel.
//
//	node = scatter(tid)
//	if level[node] != L: exit
//	for e in rowPtr[node]..rowPtr[node+1]:
//	    nb = adj[e]
//	    if level[nb] == INF: level[nb] = L+1
func bfsKernel(n int) *kernels.Program {
	const (
		rTid   kernels.Reg = 0
		rCond  kernels.Reg = 2
		rAddr  kernels.Reg = 3
		rBase  kernels.Reg = 4
		rMyLvl kernels.Reg = 5
		rL     kernels.Reg = 6
		rEdge  kernels.Reg = 7
		rEnd   kernels.Reg = 8
		rNb    kernels.Reg = 9
		rNbLvl kernels.Reg = 10
		rNewL  kernels.Reg = 11
		rNode  kernels.Reg = 12
		rTmp   kernels.Reg = 13
	)
	b := kernels.NewBuilder("bfs")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.SltuImm(rCond, rTid, int64(n))
	b.Bz(rCond, "done", "done")
	emitScatteredIndex(b, rNode, rTmp, n, 1)

	// myLevel = level[node]
	b.Special(rBase, kernels.SpecParam2)
	b.ShlImm(rAddr, rNode, 3)
	b.Add(rAddr, rAddr, rBase)
	b.Ld(rMyLvl, rAddr, 0, 8)
	b.Special(rL, kernels.SpecParam3)
	b.Seq(rCond, rMyLvl, rL)
	b.Bz(rCond, "done", "done")

	// edge range
	b.Special(rBase, kernels.SpecParam0)
	b.ShlImm(rAddr, rNode, 3)
	b.Add(rAddr, rAddr, rBase)
	b.Ld(rEdge, rAddr, 0, 8)
	b.Ld(rEnd, rAddr, 8, 8)

	b.Label("loop")
	b.Sltu(rCond, rEdge, rEnd)
	b.Bz(rCond, "done", "done")
	// nb = adj[edge]
	b.Special(rBase, kernels.SpecParam1)
	b.ShlImm(rAddr, rEdge, 3)
	b.Add(rAddr, rAddr, rBase)
	b.Ld(rNb, rAddr, 0, 8)
	// level[nb]
	b.Special(rBase, kernels.SpecParam2)
	b.ShlImm(rAddr, rNb, 3)
	b.Add(rAddr, rAddr, rBase)
	b.Ld(rNbLvl, rAddr, 0, 8)
	b.SeqImm(rCond, rNbLvl, levelINF)
	b.Bz(rCond, "next", "next")
	b.AddImm(rNewL, rL, 1)
	b.St(rAddr, 0, rNewL, 8)
	b.Label("next")
	b.AddImm(rEdge, rEdge, 1)
	b.Jmp("loop")

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}
