package plates

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// platePattern is an exact plate name as name writes it, read
// independently of parseName: zero-padded to eight step and three rank
// digits, and wider only without a leading zero.
var platePattern = regexp.MustCompile(`^plate_step(\d{8}|[1-9]\d{8,})_rank(\d{3}|[1-9]\d{3,})\.ck$`)

// FuzzPlatesLoad writes fuzzed file names, one per line of names, with
// distinct contents into a directory and loads an n-rank set from it.
// Load must not panic, and it must return exactly the newest step whose
// exact plate names are ranks 0..n-1 and nothing else, with each rank's
// own bytes, or an error when no step qualifies: never part of a set.
func FuzzPlatesLoad(f *testing.F) {
	f.Add("plate_step00000010_rank000.ck\nplate_step00000010_rank001.ck", uint8(2), []byte("x"))
	f.Add("plate_step00000010_rank000.ck\nplate_step00000010_rank001.ck\nplate_step00000020_rank000.ck\nplate_step00000020_rank001.ck.tmp", uint8(2), []byte{})
	f.Add("plate_step00000010_rank000.ck\nplate_step00000010_rank001.ck\nplate_step00000020_rank000.ck\nplate_step00000020_rank001.ck\nplate_step00000020_rank002.ck", uint8(2), []byte("y"))
	f.Add("plate_step1_rank0.ck\nplate_step00000000_rank000.ck\nplate_step123456789_rank000.ck\nplate_step00000001_rank1000.ck", uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, names string, nRaw uint8, content []byte) {
		n := int(nRaw % 8)
		dir := t.TempDir()
		written := map[string][]byte{}
		for i, nm := range strings.Split(names, "\n") {
			if nm == "" || nm == "." || nm == ".." || filepath.Base(nm) != nm || strings.ContainsRune(nm, 0) {
				continue
			}
			blob := append(append([]byte(nil), content...), byte(i), byte(i>>8))
			if err := os.WriteFile(filepath.Join(dir, nm), blob, 0o644); err != nil {
				continue // a name the file system refuses
			}
			written[nm] = blob
		}

		// The oracle: each step's set of exact ranks.
		ranks := map[int]map[int]bool{}
		for nm := range written {
			m := platePattern.FindStringSubmatch(nm)
			if m == nil {
				continue
			}
			step, err1 := strconv.Atoi(m[1])
			rank, err2 := strconv.Atoi(m[2])
			if err1 != nil || err2 != nil || step == 0 {
				continue
			}
			if ranks[step] == nil {
				ranks[step] = map[int]bool{}
			}
			ranks[step][rank] = true
		}
		want := 0
		for step, rs := range ranks {
			complete := len(rs) == n
			for r := 0; r < n; r++ {
				complete = complete && rs[r]
			}
			if complete && step > want {
				want = step
			}
		}

		d := &Dir{Path: dir}
		step, err := d.Load(n)
		if want == 0 {
			if err == nil {
				t.Fatalf("Load(%d) = step %d over %q, want an error", n, step, names)
			}
			return
		}
		if err != nil || step != want {
			t.Fatalf("Load(%d) = %d, %v over %q; want step %d", n, step, err, names, want)
		}
		got, blobs := d.Loaded()
		if got != want || len(blobs) != n {
			t.Fatalf("Loaded = step %d, %d blobs; want step %d, %d", got, len(blobs), want, n)
		}
		for r, b := range blobs {
			if !bytes.Equal(b, written[name(want, r)]) {
				t.Fatalf("rank %d loaded %q, its plate holds %q", r, b, written[name(want, r)])
			}
		}
	})
}
