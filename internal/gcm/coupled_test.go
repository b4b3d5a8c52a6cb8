package gcm

import (
	"math"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm/tile"
)

// miniCoupled builds a small, fast coupled configuration.
func miniCoupled(px, py int) CoupledConfig {
	d := tile.Decomp{NXg: 16, NYg: 8, Px: px, Py: py, PeriodicX: true}
	cfg := DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 16, 8
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = defaultDZ(4, 4000)
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 16, 8
	cfg.CoupleEvery = 5
	return cfg
}

func TestCoupledRunsAndExchangesBoundaries(t *testing.T) {
	cfg := miniCoupled(2, 1)
	res, err := RunCoupled(2*cfg.Ocean.Decomp.Tiles(), 1, cfg, 12, ParallelOpts{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coupled := res.Coupled
	for r, cp := range coupled {
		ke := 0.0
		for k := 0; k < cp.M.G.NZ; k++ {
			for j := 0; j < cp.M.G.NY; j++ {
				for i := 0; i < cp.M.G.NX; i++ {
					u := cp.M.S.U.At(i, j, k)
					ke += u * u
				}
			}
		}
		if math.IsNaN(ke) {
			t.Fatalf("worker %d (%v) went NaN", r, cp.IsOcean)
		}
		if cp.IsOcean {
			if !cp.oceanF.active {
				t.Fatalf("ocean worker %d never received atmosphere fluxes", r)
			}
		} else if cp.phys.SST == nil {
			t.Fatalf("atmosphere worker %d never received an SST", r)
		}
	}
	// The received SST must reflect the ocean surface temperature (C
	// range), not the uninitialised zero field.
	for _, cp := range coupled {
		if cp.IsOcean {
			continue
		}
		var sum float64
		n := 0
		for j := 0; j < cp.M.G.NY; j++ {
			for i := 0; i < cp.M.G.NX; i++ {
				sum += cp.phys.SST.At(i, j)
				n++
			}
		}
		mean := sum / float64(n)
		if mean < -5 || mean > 40 {
			t.Fatalf("implausible mean SST %g C on the atmosphere side", mean)
		}
	}
}

func TestCoupledValidation(t *testing.T) {
	cfg := miniCoupled(2, 1)
	cfg.CoupleEvery = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("CoupleEvery=0 accepted")
	}
	cfg = miniCoupled(2, 1)
	cfg.Atmos.Kernel.Dt = 999
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched time steps accepted")
	}
	cfg = miniCoupled(2, 1)
	if _, err := NewCoupled(cfg, &comm.Serial{}); err == nil {
		t.Fatal("coupled run on one worker accepted")
	}
}

func TestOffsetEndpointGlobalSum(t *testing.T) {
	// Component-local sums must span only the component's workers.
	cfg := miniCoupled(2, 1)
	nWorkers := 2 * cfg.Ocean.Decomp.Tiles()
	cl, err := cluster.New(cluster.DefaultConfig(nWorkers, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	tiles := cfg.Ocean.Decomp.Tiles()
	cl.Start(func(w *cluster.Worker) {
		ep := lib.Bind(w)
		base := 0
		if w.Rank >= tiles {
			base = tiles
		}
		oe := &offsetEndpoint{Endpoint: ep, base: base, n: tiles}
		got := oe.GlobalSum(float64(oe.Rank() + 1))
		want := 0.0
		for r := 0; r < tiles; r++ {
			want += float64(r + 1)
		}
		if math.Abs(got-want) > 1e-12 {
			bad++
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d workers computed a wrong component-local sum", bad)
	}
}

// TestOffsetEndpointBarrier: a component-local Barrier on every rank
// after the run (the after hook) meets only its component's ranks, so
// it ends, later in virtual time than the same run without it.
func TestOffsetEndpointBarrier(t *testing.T) {
	cfg := miniCoupled(2, 1)
	n := 2 * cfg.Ocean.Decomp.Tiles()
	plain, err := RunCoupled(n, 1, cfg, 2, ParallelOpts{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	met := 0
	res, err := RunCoupled(n, 1, cfg, 2, ParallelOpts{}, nil, func(cp *Coupled) {
		cp.M.EP.Barrier()
		met++
	})
	if err != nil {
		t.Fatal(err)
	}
	if met != n {
		t.Fatalf("%d of %d ranks left the barrier", met, n)
	}
	if res.FinalTime <= plain.FinalTime {
		t.Fatalf("barrier took no virtual time: %v, plain run %v", res.FinalTime, plain.FinalTime)
	}
}
