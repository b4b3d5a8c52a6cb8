package gcm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/gcm/tile"
)

// TestCheckpointRestartBitExact: run A for 10 steps; run B for 5, save,
// restore into a fresh model, run 5 more — the two must agree exactly.
func TestCheckpointRestartBitExact(t *testing.T) {
	cfg := smallGyre(1, 1)

	mA, _, err := RunSerial(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}

	mB, _, err := RunSerial(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mB.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	mC, err := New(cfg, &comm.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mC.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if mC.Steps != 5 {
		t.Fatalf("restored step count = %d", mC.Steps)
	}
	mC.Run(5)

	for k := 0; k < mA.G.NZ; k++ {
		for j := 0; j < mA.G.NY; j++ {
			for i := 0; i < mA.G.NX; i++ {
				if a, c := mA.S.Theta.At(i, j, k), mC.S.Theta.At(i, j, k); a != c {
					t.Fatalf("theta(%d,%d,%d): %g vs %g", i, j, k, a, c)
				}
				if a, c := mA.S.U.At(i, j, k), mC.S.U.At(i, j, k); a != c {
					t.Fatalf("u(%d,%d,%d): %g vs %g", i, j, k, a, c)
				}
				if a, c := mA.S.V.At(i, j, k), mC.S.V.At(i, j, k); a != c {
					t.Fatalf("v(%d,%d,%d): %g vs %g", i, j, k, a, c)
				}
			}
		}
	}
	for j := 0; j < mA.G.NY; j++ {
		for i := 0; i < mA.G.NX; i++ {
			if a, c := mA.S.Ps.At(i, j), mC.S.Ps.At(i, j); a != c {
				t.Fatalf("ps(%d,%d): %g vs %g", i, j, a, c)
			}
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	cfg := smallGyre(1, 1)
	m, _, err := RunSerial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong grid.
	other := GyreConfig(24, 24, 3, tile.Decomp{NXg: 24, NYg: 24, Px: 1, Py: 1})
	m2, err := New(other, &comm.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("grid mismatch accepted")
	}

	// Truncated stream.
	m3, err := New(cfg, &comm.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.Restore(bytes.NewReader(buf.Bytes()[:100])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}

	// Corrupted magic.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] ^= 0xff
	if err := m3.Restore(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestRestoreNamesFailedSection: a stream that dies mid-state must say
// exactly which section of the state was lost, so a bad restart file
// is diagnosable without a hex dump.
func TestRestoreNamesFailedSection(t *testing.T) {
	cfg := smallGyre(1, 1)
	m, _, err := RunSerial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Model {
		m2, err := New(cfg, &comm.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		return m2
	}

	// Truncated just past the header: the first 3-D section fails.
	err = fresh().Restore(bytes.NewReader(buf.Bytes()[:100]))
	if err == nil || !strings.Contains(err.Error(), "restore section U") {
		t.Errorf("early truncation error does not name section U: %v", err)
	}

	// Truncated one byte short: the trailing 2-D section fails.
	err = fresh().Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-1]))
	if err == nil || !strings.Contains(err.Error(), "restore section Ps") {
		t.Errorf("late truncation error does not name section Ps: %v", err)
	}
}

// TestCheckpointPreservesEnergy: a restore must not perturb the
// solution at all — KE before save equals KE after restore.
func TestCheckpointPreservesEnergy(t *testing.T) {
	cfg := smallGyre(1, 1)
	m, _, err := RunSerial(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	keBefore := m.TotalKE()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg, &comm.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if ke := m2.TotalKE(); math.Abs(ke-keBefore) > 0 {
		t.Fatalf("KE changed across restore: %g vs %g", ke, keBefore)
	}
}
