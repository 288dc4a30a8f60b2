package workloads

import (
	"fmt"

	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/vm"
)

// buildMemcached reproduces the paper's key-value store workload: GET
// requests with Zipf-skewed keys (standing in for the Wikipedia trace of
// Hetherington et al.) probing an open-chaining hash table. Each probe
// hashes the key and chases a bucket chain — scattered reads over a large
// table with hot-key reuse, the signature memcached pattern.
func init() { Register("memcached", buildMemcached) }

func buildMemcached(env *Env) (*Workload, error) {
	requests := env.scale(2<<10, 64<<10, 256<<10, 1<<20)
	perThread := 2
	keys := env.scale(8<<10, 128<<10, 512<<10, 2<<20)

	t := newKVTable(nextPow2(keys/2), keys)
	for k := 0; k < keys; k++ {
		key := env.RNG.Uint64() | 1
		t.insert(key, key^0xDEAD)
	}

	// Zipf-skewed request stream over the inserted keys.
	zipf := engine.NewZipf(env.RNG, len(t.entries)-1, 1.1)
	reqs := make([]uint64, requests*perThread)
	for i := range reqs {
		reqs[i] = t.entries[1+zipf.Draw()].key
	}
	return t.probe("memcached", env.AS, reqs, perThread), nil
}

// kvTable is the open-chaining hash table the key-value probe kernel
// walks. Bucket heads index 32-byte entries laid out key|next|value|pad;
// entry 0 is the nil sentinel that ends every chain.
type kvTable struct {
	heads   []uint64
	entries []kvEntry
}

type kvEntry struct{ key, next, value uint64 }

const kvEntrySize = 32

// newKVTable returns an empty table of buckets (a power of two) chains
// with room for capacity entries.
func newKVTable(buckets, capacity int) *kvTable {
	return &kvTable{heads: make([]uint64, buckets), entries: make([]kvEntry, 1, capacity+1)}
}

func (t *kvTable) bucket(key uint64) uint64 { return mixHash(key) & uint64(len(t.heads)-1) }

// insert pushes a new entry onto the front of key's chain.
func (t *kvTable) insert(key, value uint64) {
	h := t.bucket(key)
	t.entries = append(t.entries, kvEntry{key: key, next: t.heads[h], value: value})
	t.heads[h] = uint64(len(t.entries) - 1)
}

// lookup returns what a probe of key finds: its value, or 0 on a miss.
func (t *kvTable) lookup(key uint64) uint64 {
	for e := t.heads[t.bucket(key)]; e != 0; e = t.entries[e].next {
		if t.entries[e].key == key {
			return t.entries[e].value
		}
	}
	return 0
}

// probe lays the table and the request keys out in as and returns the
// probe workload: each of len(reqs)/perThread threads sums the values its
// perThread keys find, reading key g of slot r at reqs[r+g*requests].
func (t *kvTable) probe(name string, as *vm.AddressSpace, reqs []uint64, perThread int) *Workload {
	requests := len(reqs) / perThread
	headsVA := as.Malloc(uint64(len(t.heads)) * 8)
	entVA := as.Malloc(uint64(len(t.entries)) * kvEntrySize)
	reqVA := as.Malloc(uint64(len(reqs)) * 8)
	outVA := as.Malloc(uint64(requests) * 8)
	as.Writer(headsVA).U64s(t.heads)
	w := as.Writer(entVA)
	for _, e := range t.entries {
		w.U64s([]uint64{e.key, e.next, e.value, 0})
	}
	as.Writer(reqVA).U64s(reqs)

	blockDim := 256
	l := &kernels.Launch{Program: memcachedKernel(requests, perThread), Grid: gridFor(requests, blockDim), BlockDim: blockDim}
	l.Params[0] = headsVA
	l.Params[1] = entVA
	l.Params[2] = reqVA
	l.Params[3] = outVA
	l.Params[4] = uint64(len(t.heads) - 1) // mask

	check := func() error {
		for _, tid := range []int{0, requests / 2, requests - 1} {
			r := scatteredIndex(tid, requests, 1)
			var want uint64
			for g := 0; g < perThread; g++ {
				want += t.lookup(reqs[r+g*requests])
			}
			if got := as.Read64(outVA + uint64(r)*8); got != want {
				return fmt.Errorf("%s: slot %d sum %d, want %d", name, r, got, want)
			}
		}
		return nil
	}
	return &Workload{AS: as, Launch: l, Check: check}
}

// mixHash is the integer hash the kernel implements (xorshift-multiply).
func mixHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// memcachedKernel: for g in 0..perThread: key = reqs[tid + g*requests];
// h = mix(key) & mask; walk the chain; accumulate found values.
func memcachedKernel(requests, perThread int) *kernels.Program {
	const (
		rTid  kernels.Reg = 0
		rReq  kernels.Reg = 1
		rCond kernels.Reg = 2
		rG    kernels.Reg = 3
		rKey  kernels.Reg = 5
		rH    kernels.Reg = 6
		rE    kernels.Reg = 7
		rEK   kernels.Reg = 8
		rSum  kernels.Reg = 9
		rTmp  kernels.Reg = 10
		rBase kernels.Reg = 11
		rMask kernels.Reg = 12
		rIdx  kernels.Reg = 13
		rV    kernels.Reg = 14
	)
	b := kernels.NewBuilder("memcached")
	b.Special(rTid, kernels.SpecGlobalTID)
	b.SltuImm(rCond, rTid, int64(requests))
	b.Bz(rCond, "done", "done")
	emitScatteredIndex(b, rReq, rTmp, requests, 1)

	b.Special(rMask, kernels.SpecParam4)
	b.MovImm(rSum, 0)
	b.MovImm(rG, 0)

	b.Label("gloop")
	// key = reqs[req + g*N]
	b.MulImm(rIdx, rG, int64(requests))
	b.Add(rIdx, rIdx, rReq)
	b.ShlImm(rIdx, rIdx, 3)
	b.Special(rBase, kernels.SpecParam2)
	b.Add(rIdx, rIdx, rBase)
	b.Ld(rKey, rIdx, 0, 8)

	// h = mix(key) & mask  (xorshift-multiply inline)
	b.ShrImm(rTmp, rKey, 33)
	b.Xor(rH, rKey, rTmp)
	b.MovImm(rTmp, -49064778989728563) // 0xFF51AFD7ED558CCD as int64
	b.Mul(rH, rH, rTmp)
	b.ShrImm(rTmp, rH, 29)
	b.Xor(rH, rH, rTmp)
	b.And(rH, rH, rMask)

	// e = heads[h]
	b.ShlImm(rTmp, rH, 3)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rTmp, rTmp, rBase)
	b.Ld(rE, rTmp, 0, 8)

	b.Label("chain")
	b.Bz(rE, "gnext", "gnext")
	// entry base = ents + e*32
	b.ShlImm(rTmp, rE, 5)
	b.Special(rBase, kernels.SpecParam1)
	b.Add(rTmp, rTmp, rBase)
	b.Ld(rEK, rTmp, 0, 8)
	b.Seq(rCond, rEK, rKey)
	// Both sides of the hit/miss split rejoin at the chain loop head.
	b.Bnz(rCond, "found", "chain")
	b.Label("cnext")
	b.Ld(rE, rTmp, 8, 8) // next
	b.Jmp("chain")
	b.Label("found")
	b.Ld(rV, rTmp, 16, 8)
	b.Add(rSum, rSum, rV)
	b.MovImm(rE, 0)
	b.Jmp("chain")

	b.Label("gnext")
	b.AddImm(rG, rG, 1)
	b.SltuImm(rCond, rG, int64(perThread))
	b.Bnz(rCond, "gloop", "gend")
	b.Label("gend")

	// out[req] = sum
	b.ShlImm(rTmp, rReq, 3)
	b.Special(rBase, kernels.SpecParam3)
	b.Add(rTmp, rTmp, rBase)
	b.St(rTmp, 0, rSum, 8)

	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func nextPow2(x int) int {
	n := 1
	for n < x {
		n <<= 1
	}
	return n
}
