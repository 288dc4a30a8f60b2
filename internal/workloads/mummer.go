package workloads

import (
	"fmt"

	"gpummu/internal/kernels"
)

// buildMummer reproduces the mummergpu access pattern: every thread matches
// a DNA read against a suffix trie, chasing child pointers from node to
// node. Each step is a data-dependent load at an essentially random
// location, which is why mummergpu has the worst page divergence in the
// paper (average above 8, maximum 32 — warp lanes walk unrelated subtrees).
func init() { Register("mummergpu", buildMummer) }

func buildMummer(env *Env) (*Workload, error) {
	queries := env.scale(2<<10, 64<<10, 256<<10, 1<<20)
	qlen := env.scale(8, 12, 14, 16)
	nodes := env.scale(8<<10, 128<<10, 512<<10, 2<<20)

	// Build a random 4-ary trie by inserting random strings until the node
	// budget is exhausted. Node layout: 4 children × 8 bytes.
	type trieNode struct{ kids [4]uint64 }
	trie := make([]trieNode, 1, nodes)
	for len(trie) < nodes {
		cur := 0
		for d := 0; d < qlen && len(trie) < nodes; d++ {
			c := env.RNG.Intn(4)
			if trie[cur].kids[c] == 0 {
				trie = append(trie, trieNode{})
				trie[cur].kids[c] = uint64(len(trie) - 1)
			}
			cur = int(trie[cur].kids[c])
		}
	}

	qs := make([]byte, queries*qlen)
	for i := range qs {
		qs[i] = byte(env.RNG.Intn(4))
	}

	as := env.AS
	trieVA := as.Malloc(uint64(len(trie)) * 32)
	qVA := as.Malloc(uint64(len(qs)))
	outVA := as.Malloc(uint64(queries) * 8)
	w := as.Writer(trieVA)
	for _, n := range trie {
		w.U64s(n.kids[:])
	}
	as.Writer(qVA).Bytes(qs)

	blockDim := 256
	l := &kernels.Launch{Program: mummerKernel(queries, qlen), Grid: gridFor(queries, blockDim), BlockDim: blockDim}
	l.Params[0] = trieVA
	l.Params[1] = qVA
	l.Params[2] = outVA

	match := func(q int) uint64 {
		cur := uint64(0)
		for d := 0; d < qlen; d++ {
			next := trie[cur].kids[qs[q*qlen+d]]
			if next == 0 {
				break
			}
			cur = next
		}
		return cur
	}
	check := func() error {
		for _, t := range []int{0, queries / 2, queries - 1} {
			q := scatteredIndex(t, queries, 1)
			if got, want := as.Read64(outVA+uint64(q)*8), match(q); got != want {
				return fmt.Errorf("mummergpu: query %d reached node %d, want %d", q, got, want)
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}, nil
}

// mummerKernel walks the trie:
//
//	q = scatter(tid)
//	node = 0
//	for d in 0..qlen:
//	    c = query[q*qlen+d]
//	    next = trie[node*32 + c*8]
//	    if next == 0: break
//	    node = next
//	out[q] = node
func mummerKernel(queries, qlen int) *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rQIdx kernels.Reg = 1
		rCond kernels.Reg = 2
		rD    kernels.Reg = 4
		rNode kernels.Reg = 5
		rCh   kernels.Reg = 6
		rNext kernels.Reg = 7
		rQA   kernels.Reg = 8 // running query cursor
		rTmp  kernels.Reg = 9
		rBase kernels.Reg = 10
	)
	b := kernels.NewBuilder("mummergpu")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.SltuImm(rCond, rTid, int64(queries))
	b.Bz(rCond, "done", "done")
	emitScatteredIndex(b, rQIdx, rTmp, queries, 1)

	b.MulImm(rQA, rQIdx, int64(qlen))
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rQA, rQA, rBase)
	b.MovImm(rNode, 0)
	b.MovImm(rD, 0)

	b.Label("loop")
	b.Ld(rCh, rQA, 0, 1)
	// next = trie[node*32 + ch*8]
	b.ShlImm(rTmp, rNode, 5)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rTmp, rTmp, rBase)
	b.ShlImm(rCh, rCh, 3)
	b.Add(rTmp, rTmp, rCh)
	b.Ld(rNext, rTmp, 0, 8)
	b.Bz(rNext, "store", "store")
	b.Mov(rNode, rNext)
	b.AddImm(rQA, rQA, 1)
	b.AddImm(rD, rD, 1)
	b.SltuImm(rCond, rD, int64(qlen))
	b.Bnz(rCond, "loop", "store")

	b.Label("store")
	b.ShlImm(rTmp, rQIdx, 3)
	b.Special(rBase, kernels.SpecParam2)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rNode, 8)

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}
