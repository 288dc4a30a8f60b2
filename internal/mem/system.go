package mem

import (
	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/stats"
)

// Class tags a memory request with its originator so statistics can separate
// ordinary data traffic from page table walks.
type Class uint8

const (
	// ClassData is a load/store issued by a shader core.
	ClassData Class = iota
	// ClassWalk is a page-table-walk reference issued by a PTW.
	ClassWalk
)

// System is the shared memory side of the machine: interconnect, sliced L2,
// and DRAM channels, one per memory partition (paper: 8 channels with
// 128 KB of L2 each). Shader cores call Access for every L1 miss; page
// table walkers call it for every walk reference (walks bypass the L1, as
// in the paper, but hit in the shared L2).
type System struct {
	cfg    config.Hardware
	l2     []*Cache
	l2Res  []*engine.SlottedResource
	dram   []*engine.SlottedResource
	icnt   *engine.SlottedResource
	st     *stats.Sim
	slices []SliceStat
}

// SliceStat is one L2 slice's traffic breakdown. The counters are plain
// field increments on the Access path (always on: the per-partition
// breakdown cannot be reconstructed from the flat aggregate afterwards).
type SliceStat struct {
	Accesses uint64 `json:"accesses"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Walks    uint64 `json:"walks"` // page-table-walk references routed here
}

// NewSystem builds the memory system for the given machine configuration,
// recording statistics into st.
func NewSystem(cfg config.Hardware, st *stats.Sim) *System {
	s := &System{cfg: cfg, st: st}
	s.l2 = make([]*Cache, cfg.NumPartitions)
	s.l2Res = make([]*engine.SlottedResource, cfg.NumPartitions)
	s.dram = make([]*engine.SlottedResource, cfg.NumPartitions)
	const window = 32
	for i := 0; i < cfg.NumPartitions; i++ {
		s.l2[i] = NewCache(cfg.L2BytesPerPart, cfg.L1LineSize, cfg.L2Assoc)
		s.l2Res[i] = engine.NewSlottedResource(1, window)
		s.dram[i] = engine.NewSlottedResource(1, window)
	}
	// The interconnect has one port per core cluster in GPGPU-Sim; a port
	// per two cores approximates its aggregate bandwidth.
	ports := cfg.NumCores/2 + 1
	s.icnt = engine.NewSlottedResource(ports, window)
	s.slices = make([]SliceStat, cfg.NumPartitions)
	return s
}

// Partition maps a physical address to its memory partition, interleaving
// at cache-line granularity as GPGPU-Sim does.
func (s *System) Partition(pa uint64) int {
	line := pa >> s.l2[0].lineShift
	return int(line % uint64(len(s.l2)))
}

// Access sends one cache-line request (an L1 miss or a walk reference) into
// the memory system at cycle now and returns the cycle its data is back at
// the requester, plus whether it hit in the L2.
func (s *System) Access(now engine.Cycle, pa uint64, class Class) (done engine.Cycle, l2hit bool) {
	part := s.Partition(pa)

	// Request traverses the interconnect.
	reqStart := s.icnt.Acquire(now, 1)
	atL2 := reqStart + engine.Cycle(s.cfg.ICNTLatency)

	// L2 lookup.
	l2Start := s.l2Res[part].Acquire(atL2, 2)
	hit, _, _ := s.l2[part].Access(pa, -1)
	s.st.L2Accesses.Inc()
	sl := &s.slices[part]
	sl.Accesses++
	if hit {
		sl.Hits++
	} else {
		sl.Misses++
	}
	if class == ClassWalk {
		sl.Walks++
	}
	dataReady := l2Start + engine.Cycle(s.cfg.L2Latency)
	if hit {
		s.st.L2Hits.Inc()
	} else {
		s.st.L2Misses.Inc()
		// DRAM access behind the same partition.
		dramStart := s.dram[part].Acquire(dataReady, s.cfg.DRAMBusy)
		dataReady = dramStart + engine.Cycle(s.cfg.DRAMLatency)
	}

	// Response traverses the interconnect back.
	respStart := s.icnt.Acquire(dataReady, 1)
	done = respStart + engine.Cycle(s.cfg.ICNTLatency)

	if class == ClassWalk && hit {
		s.st.WalkCacheHits.Inc()
	}
	return done, hit
}

// L2Probe reports whether pa is currently present in its L2 slice, without
// updating replacement state or timing. The PTW scheduler uses it to order
// same-line walk references.
func (s *System) L2Probe(pa uint64) bool {
	return s.l2[s.Partition(pa)].Probe(pa)
}

// LineShift returns log2 of the machine's cache line size.
func (s *System) LineShift() uint { return s.l2[0].LineShift() }

// Prune discards contention bookkeeping for cycles before now (the global
// clock is monotonic, so no request will ever target them again).
func (s *System) Prune(now engine.Cycle) {
	s.icnt.PruneBefore(now)
	for i := range s.l2Res {
		s.l2Res[i].PruneBefore(now)
		s.dram[i].PruneBefore(now)
	}
}

// Reset returns the memory system to its post-construction state: L2
// slices flushed, contention bookkeeping and prune floors cleared, per-
// slice counters zeroed. Warm-start paths that rerun a kernel from cycle 0
// on an already-built system call this so the rerun observes exactly the
// free capacity a fresh system would (Prune/PruneBefore floors from the
// previous run would otherwise clamp early Acquires; see
// engine.SlottedResource.Reset).
func (s *System) Reset() {
	s.FlushL2()
	s.icnt.Reset()
	for i := range s.l2Res {
		s.l2Res[i].Reset()
		s.dram[i].Reset()
	}
	for i := range s.slices {
		s.slices[i] = SliceStat{}
	}
}

// SliceStats returns the per-L2-slice traffic counters, one per memory
// partition. The slice is live (counters keep advancing); callers must not
// mutate it.
func (s *System) SliceStats() []SliceStat { return s.slices }

// IcntUtilization reports interconnect port occupancy over cycles
// [from, to). Approximate for observability: windows already pruned read as
// idle.
func (s *System) IcntUtilization(from, to engine.Cycle) float64 {
	return s.icnt.Utilization(from, to)
}

// DRAMUtilization reports mean DRAM channel occupancy over cycles
// [from, to), averaged across partitions. Approximate like IcntUtilization.
func (s *System) DRAMUtilization(from, to engine.Cycle) float64 {
	var sum float64
	for _, d := range s.dram {
		sum += d.Utilization(from, to)
	}
	return sum / float64(len(s.dram))
}

// FlushL2 invalidates all L2 slices.
func (s *System) FlushL2() {
	for _, c := range s.l2 {
		c.Flush()
	}
}
