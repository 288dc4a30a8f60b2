package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile into the file cpu and arranges a heap
// profile into the file heap; an empty name skips that profile. The
// returned stop function ends the CPU profile and writes the heap profile.
// Stop is idempotent, so a command can defer it and also call it before an
// explicit os.Exit.
func StartProfiles(cpu, heap string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpuFile = f
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if heap == "" {
			return nil
		}
		f, err := os.Create(heap)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		return f.Close()
	}, nil
}
