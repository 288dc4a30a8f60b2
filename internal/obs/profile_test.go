package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles checks that both profiles land in their files, that
// stop is idempotent, and that an unwritable path comes back as an error.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	stop, err := StartProfiles(cpu, heap)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	for _, f := range []string{cpu, heap} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", f, err)
		}
	}

	missing := filepath.Join(dir, "no-such-dir", "p.prof")
	if _, err := StartProfiles(missing, ""); err == nil {
		t.Error("unwritable cpu profile path accepted")
	}
	stop, err = StartProfiles("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable heap profile path accepted")
	}
}
