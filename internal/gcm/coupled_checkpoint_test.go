package gcm

import (
	"bytes"
	"testing"

	"hyades/internal/plates"
)

// runCoupledSegment runs the mini coupled job to step `to` through the
// rank runner — resuming from the plates under path when resume is set,
// writing a plate set every `every` steps when it is nonzero — and
// returns one full Coupled.Checkpoint stream per rank.
func runCoupledSegment(t *testing.T, path string, resume bool, every, to int) [][]byte {
	t.Helper()
	cfg := miniCoupled(2, 1)
	n := 2 * cfg.Ocean.Decomp.Tiles()
	dir := &plates.Dir{Path: path}
	if resume {
		if _, err := dir.Load(n); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunCoupled(n, 1, cfg, to, ParallelOpts{CheckpointEvery: every}, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for r, cp := range res.Coupled {
		var buf bytes.Buffer
		if err := cp.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		out[r] = buf.Bytes()
	}
	return out
}

// TestCoupledCheckpointRestartBitExact pins the coupled restart
// contract figure9's -resume relies on: a run checkpointed at an
// arbitrary step — deliberately NOT a coupling boundary, so the
// atmosphere's SST estimate and the ocean's forcing fields are
// mid-interval state — and resumed in a fresh cluster reaches a state
// stream bit-identical to the uninterrupted run.
func TestCoupledCheckpointRestartBitExact(t *testing.T) {
	const n1, n2 = 7, 6 // CoupleEvery is 5: the split straddles a coupling exchange
	dir := t.TempDir()
	full := runCoupledSegment(t, dir, false, n1, n1+n2)
	resumed := runCoupledSegment(t, dir, true, 0, n1+n2)
	for r := range full {
		if !bytes.Equal(full[r], resumed[r]) {
			t.Fatalf("rank %d: resumed state stream differs from uninterrupted run", r)
		}
	}
}
