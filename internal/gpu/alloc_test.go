package gpu

import (
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
	"gpummu/internal/workloads"
)

// benchCore builds a GPU around a manually dispatched single block so tests
// can drive Core internals (coalesceMem, execMem) directly.
func benchCore(t *testing.T, cfg config.Hardware, blockDim int) (*Core, *Block, uint64) {
	t.Helper()
	as := vm.NewAddressSpace(vm.NewPhysMem(), vm.NewFrameAllocator(1<<20), vm.PageShift4K)
	data := as.Malloc(64 << 12)
	st := &stats.Sim{}
	g, err := New(cfg, as, st)
	if err != nil {
		t.Fatal(err)
	}
	l := &kernels.Launch{Program: pageStrideKernel(), Grid: 1, BlockDim: blockDim}
	l.Params[0] = data
	g.launch = l
	c := g.cores[0]
	b := newBlock(c, 0, 0)
	c.blocks = append(c.blocks, b)
	c.liveDirty = true
	return c, b, data
}

// TestCoalesceMultiWarpAttribution drives the page-warp attribution of a
// TBC-compacted warp whose lanes come from two original warps: each page's
// PageReq.Warps must list every distinct origWarp exactly once, in
// first-appearance order — the contract the Common Page Matrix and the TLB
// entry history rely on.
func TestCoalesceMultiWarpAttribution(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	cfg.TBC.Mode = config.DivTBC
	c, b, data := benchCore(t, cfg, 64) // two original warps: 0 and 1
	in := &c.g.launch.Program.Code[4]   // the Ld of pageStrideKernel
	if in.Kind != kernels.KindLoad {
		t.Fatalf("expected Code[4] to be the load, got kind %d", in.Kind)
	}

	// A compacted warp mixing threads of original warps 0 and 1:
	//   lane 0: tid 0  (warp 0) -> page 0
	//   lane 1: tid 33 (warp 1) -> page 0   (same page, second warp)
	//   lane 2: tid 2  (warp 0) -> page 1
	//   lane 3: tid 35 (warp 1) -> page 1
	//   lane 4: tid 4  (warp 0) -> page 0   (duplicate attribution)
	w := b.warps[0]
	for i := range w.lanes {
		w.lanes[i] = noLane
	}
	set := func(lane int, tid int32, va uint64) {
		w.lanes[lane] = tid
		b.reg(in.A)[tid] = va
	}
	set(0, 0, data)
	set(1, 33, data+8)
	set(2, 2, data+(1<<12))
	set(3, 35, data+(1<<12)+16)
	set(4, 4, data+24)

	c.coalesceMem(w, in, false)
	sc := &c.scratch
	if len(sc.reqs) != 2 {
		t.Fatalf("distinct pages = %d, want 2", len(sc.reqs))
	}
	for i, wantVPN := range []uint64{data >> 12, (data + (1 << 12)) >> 12} {
		if sc.reqs[i].VPN != wantVPN {
			t.Fatalf("page %d VPN = %#x, want %#x", i, sc.reqs[i].VPN, wantVPN)
		}
		ws := sc.reqs[i].Warps
		if len(ws) != 2 || ws[0] != 0 || ws[1] != 1 {
			t.Fatalf("page %d Warps = %v, want [0 1]", i, ws)
		}
	}

	// Scratch reuse must fully reset attribution: re-coalesce with only
	// warp-1 threads touching page 0.
	for i := range w.lanes {
		w.lanes[i] = noLane
	}
	set(1, 33, data)
	set(3, 35, data+32)
	c.coalesceMem(w, in, false)
	if len(sc.reqs) != 1 {
		t.Fatalf("distinct pages after reuse = %d, want 1", len(sc.reqs))
	}
	if ws := sc.reqs[0].Warps; len(ws) != 1 || ws[0] != 1 {
		t.Fatalf("Warps after reuse = %v, want [1]", ws)
	}
}

// TestExecMemSteadyStateAllocFree pins the tentpole property: once the TLB
// and L1 are warm, a full warp memory instruction — coalescing, translation,
// and cache access — performs zero heap allocations.
func TestExecMemSteadyStateAllocFree(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	c, b, data := benchCore(t, cfg, 32)
	in := &c.g.launch.Program.Code[4]
	w := b.warps[0]
	for i, tid := range w.stack[0].lanes {
		if tid == noLane {
			continue
		}
		// All lanes in one page, a few distinct lines: the steady-state hit
		// pattern of a regular workload.
		b.reg(in.A)[tid] = data + uint64(i)*8
	}

	now := engine.Cycle(0)
	runOnce := func() {
		w.stack[0].pc = 4 // rewind to the load; execMem advances past it
		w.state = WReady
		c.execMem(now, w, in)
		c.commitData()
		now = w.readyAt + 8
		// The slotted L1 port deletes as many window slots as it inserts
		// once pruned, keeping its map in steady state.
		c.l1Port.PruneBefore(now)
	}
	for i := 0; i < 32; i++ {
		runOnce() // warm TLB, L1, MSHRs, and scratch buffers
	}
	avg := testing.AllocsPerRun(200, runOnce)
	if avg != 0 {
		t.Fatalf("warm execMem allocates %.2f objects per instruction, want 0", avg)
	}
}

// TestGatedSleepAllocFree pins the blocking-MMU idle path. A core whose
// ready warp's memory instruction the MMU gate refuses records nothing for
// the refused attempt, sleeps without ticking until its first outstanding
// walk completes, and wakes there. With observability off the gated tick
// and the sleep perform zero heap allocations once warm.
func TestGatedSleepAllocFree(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.NaiveMMU(3)
	c, _, _ := benchCore(t, cfg, 64) // two warps, 32 pages each
	gateAt := engine.Cycle(0)
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("the memory gate never refused a ready warp")
		}
		issued := c.st.Instructions.Value()
		next := c.tick(gateAt)
		c.commitData()
		if c.st.Instructions.Value() == issued && !c.mmu.CanAcceptMemOp(gateAt) && readyWarp(c, gateAt) {
			break
		}
		gateAt = next
	}
	wake := c.mmu.NextEvent(gateAt)
	if c.wakeAt != wake || wake <= gateAt+1 {
		t.Fatalf("gated tick at cycle %d sleeps until %d, want the first walk completion %d", gateAt, c.wakeAt, wake)
	}
	lanes := c.st.ActiveLanes.Count()
	runOnce := func() {
		c.wakeAt = 0 // force the gated tick to run again
		c.cycle(gateAt)
		for now := gateAt + 1; now < wake; now++ {
			c.cycle(now)
			if c.tkKind != tkSkipped || c.tkEv != wake {
				t.Fatalf("cycle %d: gated core ticked before its first walk completed at %d", now, wake)
			}
		}
	}
	runOnce()
	if got := c.st.ActiveLanes.Count(); got != lanes {
		t.Fatalf("gated ticks observed %d ActiveLanes samples, want none", got-lanes)
	}
	if avg := testing.AllocsPerRun(200, runOnce); avg != 0 {
		t.Fatalf("gated tick + sleep allocates %.2f objects per run, want 0", avg)
	}
	if c.cycle(wake); c.tkKind != tkTicked {
		t.Fatalf("gated core did not tick when its first walk completed at %d", wake)
	}
}

// readyWarp reports whether any of c's live warps may issue at now.
func readyWarp(c *Core, now engine.Cycle) bool {
	for _, w := range c.warpBuf {
		if w.state == WReady && w.readyAt <= now {
			return true
		}
	}
	return false
}

// BenchmarkRunBlocking times one exact run of mummergpu/tiny on the small
// test machine behind the blocking naive 3-port MMU — figure 2's strawman,
// where most core-cycles are spent behind the memory gate.
func BenchmarkRunBlocking(b *testing.B) {
	cfg := config.SmallTest()
	cfg.MMU = config.NaiveMMU(3)
	benchRun(b, "mummergpu", workloads.SizeTiny, cfg)
}

// BenchmarkRunGated times one exact run of mummergpu/small on the 30-core
// baseline machine behind the blocking naive 3-port MMU: the benchmark's
// exact-blocking case, where at any moment most cores sleep behind the
// memory gate.
func BenchmarkRunGated(b *testing.B) {
	cfg := config.Baseline()
	cfg.MMU = config.NaiveMMU(3)
	benchRun(b, "mummergpu", workloads.SizeSmall, cfg)
}

// BenchmarkRunAugmented times one exact run of kmeans/tiny on the small
// test machine behind the paper's augmented MMU, where host time goes to
// warp issue, the ALU, the coalescer and the functional loads and stores.
func BenchmarkRunAugmented(b *testing.B) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	benchRun(b, "kmeans", workloads.SizeTiny, cfg)
}

// benchRun times exact runs of workload at size on cfg. The workload is
// rebuilt outside the timer for every iteration, so ns/op and allocs/op
// cover GPU construction and Run only.
func benchRun(b *testing.B, workload string, size workloads.Size, cfg config.Hardware) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := workloads.Build(workload, size, cfg.PageShift, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g, err := New(cfg, w.AS, &stats.Sim{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(w.Launch); err != nil {
			b.Fatal(err)
		}
	}
}
