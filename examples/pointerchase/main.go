// Pointer-chase example: build a custom kernel against the public API —
// an adversarial pointer-chasing workload that defeats every TLB — and
// sweep TLB sizes to watch reach, not latency, dominate.
//
// This demonstrates the lower-level API surface: constructing an address
// space, laying out data, assembling a kernel, and launching it.
//
//	go run ./examples/pointerchase
package main

import (
	"context"
	"fmt"
	"log"

	"gpummu"
	"gpummu/internal/kernels"
)

func main() {
	// One simulated process; data shared by every configuration is
	// rebuilt per run because kernels mutate their output buffers.
	const (
		nodes   = 64 << 10
		threads = 4 << 10
		hops    = 12
	)

	run := func(entries int) (*gpummu.Report, error) {
		as := gpummu.NewAddressSpace(12)
		ringVA := as.Malloc(nodes * 8)
		outVA := as.Malloc(threads * 8)
		// ring[i] = (i * 9973) % nodes gives a full-cycle permutation
		// with page-sized jumps.
		for i := uint64(0); i < nodes; i++ {
			as.Write64(ringVA+i*8, (i*9973)%nodes)
		}

		prog := chaseKernel(threads, hops, nodes)
		l := &kernels.Launch{Program: prog, Grid: threads / 256, BlockDim: 256}
		l.Params[0] = ringVA
		l.Params[1] = outVA

		cfg := gpummu.BaselineConfig()
		cfg.NumCores = 8 // keep the example quick
		if entries > 0 {
			cfg.MMU = gpummu.AugmentedMMU()
			cfg.MMU.Entries = entries
		}
		return gpummu.Run(context.Background(), gpummu.WithConfig(cfg), gpummu.WithKernel(as, l))
	}

	base, err := run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12s %10s %12s\n", "tlb", "cycles", "speedup", "miss-rate")
	fmt.Printf("%-10s %12d %9.3fx %11s\n", "none", base.Cycles, 1.0, "-")
	for _, entries := range []int{64, 128, 256, 512} {
		rep, err := run(entries)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %12d %9.3fx %10.1f%%\n",
			entries, rep.Cycles, rep.Speedup(base), 100*rep.TLBMissRate())
	}
	fmt.Println("\npointer chasing defeats TLB reach: larger TLBs pay access latency")
	fmt.Println("without earning hits, exactly the trade-off in the paper's figure 6.")
}

// chaseKernel: out[tid] = ring^hops(tid % nodes).
func chaseKernel(threads, hops, nodes int) *kernels.Program {
	const (
		rTid, rCur, rH, rTmp, rBase, rCond kernels.Reg = 0, 1, 2, 3, 4, 5
	)
	b := kernels.NewBuilder("chase")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.MulImm(rCur, rTid, 2497)
	b.AndImm(rCur, rCur, int64(nodes-1))
	b.MovImm(rH, 0)
	b.Label("loop")
	b.ShlImm(rTmp, rCur, 3)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rTmp, rTmp, rBase)
	b.Ld(rCur, rTmp, 0, 8)
	b.AddImm(rH, rH, 1)
	b.SltuImm(rCond, rH, int64(hops))
	b.Bnz(rCond, "loop", "end")
	b.Label("end")
	b.ShlImm(rTmp, rTid, 3)
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rCur, 8)
	b.Exit()
	return b.MustBuild()
}
