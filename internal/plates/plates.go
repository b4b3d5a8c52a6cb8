// Package plates keeps checkpoint plates: the on-disk image of the
// crash-recovery controller's committed checkpoint set, one file per
// rank per committed step.  comm.Recovery.Persist writes a set at the
// moment it commits; a resumed run starts from the newest complete set
// Load finds.  Plain host file I/O, outside the simulation core.
package plates

import (
	"fmt"
	"os"
	"path/filepath"
)

// Dir is a directory of plates.
type Dir struct {
	Path string

	// The set Load found (see Loaded).
	step  int
	blobs [][]byte
}

// name is the file name of one rank's plate for a step.
func name(step, rank int) string {
	return fmt.Sprintf("plate_step%08d_rank%03d.ck", step, rank)
}

// parseName inverts name.  Only exact names count: a leftover
// "….ck.tmp", or anything else Sscanf would tolerate after the
// pattern, does not round-trip.
func parseName(s string) (step, rank int, ok bool) {
	if _, err := fmt.Sscanf(s, "plate_step%d_rank%d.ck", &step, &rank); err != nil {
		return 0, 0, false
	}
	return step, rank, step > 0 && rank >= 0 && s == name(step, rank)
}

// Write stores a committed set.  A plate appears under its final name
// only once fully written, so a killed run leaves complete older sets
// and at worst a partial newest one, which Load skips.
func (d *Dir) Write(step int, blobs [][]byte) error {
	err := os.MkdirAll(d.Path, 0o755)
	for rank := 0; rank < len(blobs) && err == nil; rank++ {
		final := filepath.Join(d.Path, name(step, rank))
		if err = os.WriteFile(final+".tmp", blobs[rank], 0o644); err == nil {
			err = os.Rename(final+".tmp", final)
		}
	}
	if err != nil {
		return fmt.Errorf("plates: step %d: %w", step, err)
	}
	return nil
}

// Load reads the newest complete plate set of an n-rank run and returns
// its step.  A step is complete when ranks 0..n-1 are each present and
// no other rank is (a plate of rank >= n is a larger machine's); newer
// incomplete sets are passed over.
func (d *Dir) Load(n int) (step int, err error) {
	ents, err := os.ReadDir(d.Path)
	if err != nil {
		return 0, fmt.Errorf("plates: %w", err)
	}
	// ReadDir sorts by name and a step's plates share a prefix, so they
	// are adjacent: judge each run of equal steps when it ends.
	best, cur, have, foreign := 0, 0, 0, false
	flush := func() {
		if have == n && !foreign && cur > best {
			best = cur
		}
	}
	for _, e := range ents {
		s, r, ok := parseName(e.Name())
		if !ok {
			continue
		}
		if s != cur {
			flush()
			cur, have, foreign = s, 0, false
		}
		if r < n {
			have++
		} else {
			foreign = true
		}
	}
	flush()
	if best == 0 {
		return 0, fmt.Errorf("plates: no complete set (ranks 0..%d) in %s", n-1, d.Path)
	}
	blobs := make([][]byte, n)
	for rank := range blobs {
		if blobs[rank], err = os.ReadFile(filepath.Join(d.Path, name(best, rank))); err != nil {
			return 0, fmt.Errorf("plates: %w", err)
		}
	}
	d.step, d.blobs = best, blobs
	return best, nil
}

// Loaded returns the set the last successful Load read, or nil blobs.
func (d *Dir) Loaded() (step int, blobs [][]byte) { return d.step, d.blobs }
