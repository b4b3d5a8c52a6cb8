package hyades

import (
	"testing"

	"hyades/internal/bench"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/gcm"
	"hyades/internal/gcm/tile"
)

// TestResumesAccountedFor pins what step functions (des.Proc.Await) do
// to the dispatcher's accounting.  A step run by a wake is the same
// event the process's switch-in was, so every wake is still counted,
// as a resume or as a continuation: Resumes + Continued must equal the
// Resumes recorded while the primitives a run uses were process code,
// and Dispatched and Events() must not move.  It also pins the switches
// saved: one resume per rank per 16-way GlobalSum on 16 nodes and on 8
// SMPs of two, and at most 7,000 per step of the 16-rank coupled model
// (49,981 before).
func TestResumesAccountedFor(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T) (des.Counters, uint64)
		// Recorded from the process-form primitives: the 2×3 GlobalSums
		// (binomial tree and SMP half) and the intra-node Exchanges while
		// those paths were still process code.
		resumes, dispatched, events uint64
	}{
		{"coupled4x12", coupledRun(16, 8, 2, 1, 12), 35710, 107624, 180137},
		{"coupled16x1", coupledRun(32, 16, 4, 2, 1), 55649, 151324, 226242},
		{"coupled16x10", coupledRun(32, 16, 4, 2, 10), 505477, 1268230, 1898319},
		{"gsum1x16x100", gsumRun(16, 1, 100), 32016, 64016, 89616},
		{"gsum2x8x100", gsumRun(8, 2, 100), 16816, 28016, 38416},
		{"gsum2x3x100", gsumRun(3, 2, 100), 2905, 4506, 6706},
		{"exch2x1x100", exchangeRun(1, 2, 100), 404, 404, 802},
		{"ocean2x8", func(t *testing.T) (des.Counters, uint64) {
			res, err := gcm.RunParallel(8, 2, gcm.CoarseOceanConfig(bench.ScalingDecomp()), 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			return res.Counters, res.Events
		}, 496319, 1559773, 2265034},
	} {
		ctr, events := c.run(t)
		t.Logf("%s: %d events, %d dispatched, %d resumes, %d continued", c.name, events, ctr.Dispatched, ctr.Resumes, ctr.Continued)
		if ctr.Resumes+ctr.Continued != c.resumes || ctr.Dispatched != c.dispatched || events != c.events {
			t.Errorf("%s: resumes %d + continued %d, dispatched %d, events %d; recorded %d resumes, %d dispatched, %d events",
				c.name, ctr.Resumes, ctr.Continued, ctr.Dispatched, events, c.resumes, c.dispatched, c.events)
		}
		switch c.name {
		case "gsum1x16x100", "gsum2x8x100":
			// Each rank's first switch-in, then one per GlobalSum.
			if want := uint64(16 + 16*100); ctr.Resumes != want {
				t.Errorf("%s: %d resumes, want %d: one per rank and GlobalSum", c.name, ctr.Resumes, want)
			}
		case "coupled16x10":
			if perStep := ctr.Resumes / 10; perStep > 7000 {
				t.Errorf("%s: %d resumes per coupled step, ceiling 7,000", c.name, perStep)
			}
		}
	}
}

// coupledRun runs the small coupled model of the determinism suite on a
// nx×ny grid cut into px×py tiles per component, inline.
func coupledRun(nx, ny, px, py, steps int) func(t *testing.T) (des.Counters, uint64) {
	return func(t *testing.T) (des.Counters, uint64) {
		d := tile.Decomp{NXg: nx, NYg: ny, Px: px, Py: py, PeriodicX: true}
		cfg := gcm.DefaultCoupledConfig(d)
		cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = nx, ny
		cfg.Ocean.Grid.NZ = 4
		cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
		cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = nx, ny
		cfg.CoupleEvery = 5
		res, err := gcm.RunCoupled(2*d.Tiles(), 1, cfg, steps, gcm.ParallelOpts{Workers: -1}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters, res.Events
	}
}

// gsumRun has every rank of a nodes×ppn machine run ops GlobalSums.
func gsumRun(nodes, ppn, ops int) func(t *testing.T) (des.Counters, uint64) {
	return primitiveRun(nodes, ppn, func(ep comm.Endpoint) {
		for i := 0; i < ops; i++ {
			ep.GlobalSum(float64(i))
		}
	})
}

// exchangeRun has every rank of a nodes×ppn machine run ops 1-KiB
// Exchanges with the neighbouring rank.
func exchangeRun(nodes, ppn, ops int) func(t *testing.T) (des.Counters, uint64) {
	return primitiveRun(nodes, ppn, func(ep comm.Endpoint) {
		buf, layout := make([]byte, 1024), comm.Contiguous(1024, true)
		for i := 0; i < ops; i++ {
			ep.Exchange(ep.Rank()^1, buf, layout)
		}
	})
}

// primitiveRun runs body on every rank of a nodes×ppn Hyades machine.
func primitiveRun(nodes, ppn int, body func(ep comm.Endpoint)) func(t *testing.T) (des.Counters, uint64) {
	return func(t *testing.T) (des.Counters, uint64) {
		cl, err := cluster.New(cluster.DefaultConfig(nodes, ppn))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
		if err != nil {
			t.Fatal(err)
		}
		cl.Start(func(w *cluster.Worker) { body(lib.Bind(w)) })
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		return cl.Eng.Counters(), cl.Eng.Events()
	}
}
