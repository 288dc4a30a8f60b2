package snapshot

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// memFingerprint hashes all mapped memory via the page table (FNV-1a over
// the heap walked in VA order), the same normalisation the gpu package's
// equivalence tests use: identical fingerprints mean identical results.
func memFingerprint(w *workloads.Workload) uint64 {
	var h uint64 = 0xcbf29ce484222325
	base := uint64(0x0000_5C00_0000_0000)
	end := base + w.AS.MappedBytes() + (16 << 20)
	for va := base; va < end; va += 64 {
		if _, ok := w.AS.PT.Translate(va); !ok {
			va += 4032
			continue
		}
		for off := uint64(0); off < 64; off += 8 {
			h ^= w.AS.Read64(va + off)
			h *= 0x100000001b3
		}
	}
	return h
}

// runOutput is everything observable from one simulation: the full stats
// JSON, the final memory image, the cycle count, and the Chrome trace
// bytes (event-by-event timing, so any restore-induced drift shows up).
type runOutput struct {
	stats  []byte
	mem    uint64
	cycles uint64
	trace  []byte
}

func runWorkload(t *testing.T, cfg config.Hardware, w *workloads.Workload) runOutput {
	t.Helper()
	st := &stats.Sim{}
	g, err := gpu.New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 50_000_000
	var traceBuf bytes.Buffer
	ct := gpu.NewChromeTracer(&traceBuf, cfg.NumCores)
	g.SetTracer(ct)
	cycles, err := g.Run(w.Launch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Check != nil {
		if err := w.Check(); err != nil {
			t.Fatalf("functional check: %v", err)
		}
	}
	js, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return runOutput{stats: js, mem: memFingerprint(w), cycles: cycles, trace: traceBuf.Bytes()}
}

// TestRestoreRunByteIdentical is the round-trip contract: a run restored
// from a post-build checkpoint must be byte-identical to a cold run —
// stats JSON, final memory image, cycle count, and the full Chrome trace.
// The tiny bfs run lasts tens of thousands of
// cycles, well past the run loop's periodic prune cadence, so the restore
// also proves contention bookkeeping starts from a clean slate.
func TestRestoreRunByteIdentical(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()

	cold, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, cfg, cold)

	warm, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	img := Capture(warm.AS)
	// Dirty the instance with a full run, then rewind and rerun.
	runWorkload(t, cfg, warm)
	img.Restore(warm.AS)
	got := runWorkload(t, cfg, warm)

	if got.cycles != want.cycles {
		t.Fatalf("restored run simulated %d cycles, cold %d", got.cycles, want.cycles)
	}
	if !bytes.Equal(got.stats, want.stats) {
		t.Fatalf("restored run stats diverged from cold:\ngot:\n%s\nwant:\n%s", got.stats, want.stats)
	}
	if got.mem != want.mem {
		t.Fatalf("restored run memory image diverged: %x vs %x", got.mem, want.mem)
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Fatalf("restored run Chrome trace diverged from cold (%d vs %d bytes)", len(got.trace), len(want.trace))
	}
}

// TestRestoreUndoesMutation pins the restore mechanics directly: writes
// made after Capture — including to pages the snapshot never saw — vanish
// on Restore, and the allocator/heap rewind with them.
func TestRestoreUndoesMutation(t *testing.T) {
	w, err := workloads.Build("pointerchase", workloads.SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := memFingerprint(w)
	img := Capture(w.AS)

	// Scribble over the mapped heap (the layout may be sparse, so probe the
	// page table first).
	base := uint64(0x0000_5C00_0000_0000)
	for va := base; va < base+w.AS.MappedBytes(); va += 4096 {
		if _, ok := w.AS.PT.Translate(va); ok {
			w.AS.Write64(va, 0xDEAD_BEEF_DEAD_BEEF)
		}
	}
	if memFingerprint(w) == before {
		t.Fatal("mutation did not change the fingerprint; test is vacuous")
	}

	img.Restore(w.AS)
	if got := memFingerprint(w); got != before {
		t.Fatalf("restore did not rewind memory: %x vs %x", got, before)
	}
}

// TestPoolAccounting pins the build/restore bookkeeping: the first
// acquisition of a key builds, later ones restore, and a key held busy
// forces an extra cold build rather than blocking.
func TestPoolAccounting(t *testing.T) {
	p := NewPool()

	w1, rel1, err := p.Acquire("pointerchase", workloads.SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Builds != 1 || s.Restores != 0 {
		t.Fatalf("first acquire: %+v, want 1 build 0 restores", s)
	}

	// Key busy: a second acquisition must build another instance.
	w2, rel2, err := p.Acquire("pointerchase", workloads.SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w1 == w2 {
		t.Fatal("busy key handed out the same instance twice")
	}
	if s := p.Stats(); s.Builds != 2 || s.Restores != 0 {
		t.Fatalf("busy acquire: %+v, want 2 builds 0 restores", s)
	}
	rel1()
	rel1() // release is idempotent
	rel2()

	// Both instances idle: the next two acquisitions restore.
	_, rel3, err := p.Acquire("pointerchase", workloads.SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer rel3()
	if s := p.Stats(); s.Builds != 2 || s.Restores != 1 {
		t.Fatalf("idle acquire: %+v, want 2 builds 1 restore", s)
	}

	// A different key never shares instances.
	_, rel4, err := p.Acquire("pointerchase", workloads.SizeTiny, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rel4()
	if s := p.Stats(); s.Builds != 3 || s.Restores != 1 {
		t.Fatalf("new key: %+v, want 3 builds 1 restore", s)
	}
}

// TestPoolConcurrentAcquire hammers one key from many goroutines (the
// executor's -j worker pool does exactly this) — run under -race via
// tools/ci.sh. Every acquisition must be served, served instances must be
// disjoint while held, and every instance handed out must carry the
// byte-identical pristine memory image — each goroutine scribbles over its
// instance before releasing, so any restore shortfall (or cross-goroutine
// sharing) shows up as a fingerprint mismatch on a later acquisition.
func TestPoolConcurrentAcquire(t *testing.T) {
	// The oracle: a fresh build with the same identity. Builds are
	// deterministic, so every restored instance must fingerprint the same.
	pristine, err := workloads.Build("pointerchase", workloads.SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := memFingerprint(pristine)

	p := NewPool()
	const goroutines, rounds = 8, 5

	var mu sync.Mutex
	held := map[*workloads.Workload]bool{}

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w, release, err := p.Acquire("pointerchase", workloads.SizeTiny, 12, 3)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[w] {
					t.Error("pool handed one instance to two holders")
				}
				held[w] = true
				mu.Unlock()

				if got := memFingerprint(w); got != want {
					t.Errorf("acquired instance image %x, pristine %x", got, want)
				}
				// Dirty the instance so the next restore has work to do.
				w.AS.Write64(0x0000_5C00_0000_0000, uint64(r)+1)

				mu.Lock()
				held[w] = false
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()

	s := p.Stats()
	if got := s.Builds + s.Restores; got != goroutines*rounds {
		t.Fatalf("served %d acquisitions, want %d (%+v)", got, goroutines*rounds, s)
	}
	if s.Builds < 1 || s.Builds > goroutines {
		t.Fatalf("builds %d out of range [1,%d]", s.Builds, goroutines)
	}
}
