package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesAreWritten(t *testing.T) {
	p := Flags()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := flag.CommandLine.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop := p.Start()
	sink := 0
	for i := 0; i < 1e7; i++ {
		sink += i
	}
	_ = sink
	stop()
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
