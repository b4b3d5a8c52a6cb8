package hyades

// The runtime complement to the hyadeslint static checks: the des
// package's contract says a simulation run is a deterministic function
// of its inputs.  This test runs the coupled ocean–atmosphere
// simulation twice with identical configuration and requires the final
// model state, the total event count and the final virtual clock to be
// bit-for-bit identical.  Any wall-clock read, unseeded randomness,
// raw-goroutine race or map-iteration dependence in the event path
// shows up here as a digest mismatch.

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/units"
)

// coupledFingerprint runs a small coupled configuration to completion
// and fingerprints everything observable: a SHA-256 over every
// worker's checkpointed state in rank order, the kernel's event count,
// and the final virtual time.  workers sizes the host worker pool
// (cluster.Config.Workers: 0 = GOMAXPROCS, negative = inline).
func coupledFingerprint(t testing.TB, steps, workers int) (digest [32]byte, events uint64, now units.Time) {
	t.Helper()
	d := tile.Decomp{NXg: 16, NYg: 8, Px: 2, Py: 1, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 16, 8
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 16, 8
	cfg.CoupleEvery = 5

	tiles := cfg.Ocean.Decomp.Tiles()
	nWorkers := 2 * tiles
	ccfg := cluster.DefaultConfig(nWorkers, 1)
	ccfg.Workers = workers
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	coupled := make([]*gcm.Coupled, nWorkers)
	var buildErr error
	cl.Start(func(w *cluster.Worker) {
		// Each worker needs its own physics instance (per-tile SST).
		c := cfg
		if w.Rank < tiles {
			ph := physics.New(physics.Default())
			c.Atmos.Forcing = ph
			c.Physics = ph
		}
		cp, err := gcm.NewCoupled(c, lib.Bind(w))
		if err != nil {
			buildErr = err
			return
		}
		coupled[w.Rank] = cp
		cp.Run(steps)
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}

	h := sha256.New()
	for r, cp := range coupled {
		if cp == nil {
			t.Fatalf("worker %d did not build", r)
		}
		if err := cp.M.Checkpoint(h); err != nil {
			t.Fatalf("worker %d: checkpoint: %v", r, err)
		}
	}
	events, now = cl.Eng.Events(), cl.Eng.Now()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], events)
	h.Write(word[:])
	binary.LittleEndian.PutUint64(word[:], uint64(now))
	h.Write(word[:])
	copy(digest[:], h.Sum(nil))
	return digest, events, now
}

// TestCoupledRunIsDeterministic is the double-run regression: two
// identical coupled runs must agree bit for bit.
func TestCoupledRunIsDeterministic(t *testing.T) {
	const steps = 12
	d1, e1, t1 := coupledFingerprint(t, steps, 0)
	d2, e2, t2 := coupledFingerprint(t, steps, 0)
	if e1 == 0 {
		t.Fatal("no events were scheduled; the simulation did not run")
	}
	if e1 != e2 {
		t.Errorf("event counts differ between identical runs: %d vs %d", e1, e2)
	}
	if t1 != t2 {
		t.Errorf("final virtual times differ between identical runs: %v vs %v", t1, t2)
	}
	if d1 != d2 {
		t.Errorf("state digests differ between identical runs: %x vs %x", d1, d2)
	}
}

// TestDeterminismAcrossWorkerCounts is the acceptance test for the
// parallel execution layer: the host worker pool is a wall-clock
// optimization only, so runs with no pool, one worker, two workers and
// GOMAXPROCS workers must agree bit for bit — same state digest, same
// event count, same final virtual clock.  Because the digest folds in
// the event count and clock, equality also proves the pool adds zero
// simulated events and zero simulated time.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const steps = 12
	base, be, bt := coupledFingerprint(t, steps, -1) // inline, no pool
	if be == 0 {
		t.Fatal("no events were scheduled; the simulation did not run")
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		d, e, now := coupledFingerprint(t, steps, w)
		if e != be {
			t.Errorf("workers=%d: event count %d differs from inline %d", w, e, be)
		}
		if now != bt {
			t.Errorf("workers=%d: final clock %v differs from inline %v", w, now, bt)
		}
		if d != base {
			t.Errorf("workers=%d: state digest %x differs from inline %x", w, d, base)
		}
	}
}
