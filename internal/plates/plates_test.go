package plates

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, p *Dir, step, n int) {
	t.Helper()
	blobs := make([][]byte, n)
	for r := range blobs {
		blobs[r] = []byte{byte(step), byte(r)}
	}
	if err := p.Write(step, blobs); err != nil {
		t.Fatal(err)
	}
}

func TestPlateNamesMatchExactly(t *testing.T) {
	for name, ok := range map[string]bool{
		"plate_step00001536_rank003.ck":     true,
		"plate_step100000000_rank015.ck":    true, // past the zero padding
		"plate_step00001536_rank003.ck.tmp": false,
		"plate_step00001536_rank003.ckx":    false,
		"plate_step1536_rank3.ck":           false, // not what plateName writes
		"plate_step00000000_rank000.ck":     false, // no checkpoint is taken at step 0
		"plate_step-0000001_rank000.ck":     false,
		"xplate_step00001536_rank003.ck":    false,
	} {
		if _, _, got := parseName(name); got != ok {
			t.Errorf("parseName(%q) ok = %v, want %v", name, got, ok)
		}
	}
	if s, r, ok := parseName(name(3072, 15)); !ok || s != 3072 || r != 15 {
		t.Errorf("round trip = %d, %d, %v", s, r, ok)
	}
}

// TestPlatesLoadNewestCompleteSet covers the resume scan: the newest
// step whose ranks 0..n-1 are each present and which holds no foreign
// rank wins; torn sets, .tmp leftovers and a larger run's stale plates
// fall back to the previous set instead of failing later on a missing
// file.
func TestPlatesLoadNewestCompleteSet(t *testing.T) {
	const n = 4
	p := &Dir{Path: filepath.Join(t.TempDir(), "plates")}
	if _, err := p.Load(n); err == nil {
		t.Fatal("missing directory accepted")
	}
	writeSet(t, p, 10, n)
	writeSet(t, p, 20, n)
	load := func(want int) {
		t.Helper()
		q := &Dir{Path: p.Path}
		step, err := q.Load(n)
		if err != nil || step != want {
			t.Fatalf("Load = %d, %v; want step %d", step, err, want)
		}
		for r, b := range q.blobs {
			if !bytes.Equal(b, []byte{byte(want), byte(r)}) {
				t.Fatalf("rank %d loaded %v from step %d", r, b, want)
			}
		}
	}
	load(20)

	// A run killed mid-write: three final plates of step 30 and one
	// still under its temporary name.
	writeSet(t, p, 30, n)
	last := filepath.Join(p.Path, name(30, n-1))
	if err := os.Rename(last, last+".tmp"); err != nil {
		t.Fatal(err)
	}
	load(20)

	// A stale set from an 8-rank run at a later step: ranks 0..3 are all
	// there, but so are 4..7.
	writeSet(t, p, 40, 2*n)
	load(20)

	// Only foreign and torn sets left: a clear error, not a step.
	for _, step := range []int{10, 20} {
		if err := os.Remove(filepath.Join(p.Path, name(step, 0))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := (&Dir{Path: p.Path}).Load(n); err == nil || !strings.Contains(err.Error(), "no complete set (ranks 0..3)") {
		t.Fatalf("Load over torn sets: %v", err)
	}
}
