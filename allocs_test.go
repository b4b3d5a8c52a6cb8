package hyades

import (
	"runtime"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
)

// TestSteadyStateAllocs pins the hot path's steady state at zero heap
// allocations per operation: a pairwise 1-KiB exchange, a 16-way global
// sum and a step of the 16-rank coupled model.  One simulated machine
// runs each operation on every rank; rank 0 reads the process's
// allocation count after a short run of operations and again after a
// long one, so construction, warm-up and every first-use allocation lie
// before the first read.  An allocation per packet or per step shows up
// at least once per operation.  What the ceilings allow is capacity
// growth: an event queue, freelist or receive pool that reaches a new
// high-water mark grows once, ever more rarely: 14-19 times in forty
// coupled steps, each of which moves thousands of packets.
//
// Skipped under -short, and so under ci.sh's race pass: ci.sh runs it
// unraced as a stage of its own.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs unraced, without -short")
	}
	d := tile.Decomp{NXg: 32, NYg: 16, Px: 4, Py: 2, PeriodicX: true}
	coupled := gcm.DefaultCoupledConfig(d)
	coupled.Ocean.Grid.NX, coupled.Ocean.Grid.NY = 32, 16
	coupled.Ocean.Grid.NZ = 4
	coupled.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	coupled.Atmos.Grid.NX, coupled.Atmos.Grid.NY = 32, 16
	coupled.CoupleEvery = 5
	for _, c := range []struct {
		name               string
		nodes, short, long int
		ceiling            float64 // allocations per operation
		op                 func(t *testing.T, ep comm.Endpoint) func()
	}{
		{"Exchange", 2, 100, 1000, 0.05, func(t *testing.T, ep comm.Endpoint) func() {
			buf, layout := make([]byte, 1024), comm.Contiguous(1024, true)
			return func() { ep.Exchange(1-ep.Rank(), buf, layout) }
		}},
		{"GlobalSum", 16, 100, 1000, 0.05, func(t *testing.T, ep comm.Endpoint) func() {
			return func() { ep.GlobalSum(1) }
		}},
		{"CoupledStep", 16, 10, 50, 1, func(t *testing.T, ep comm.Endpoint) func() {
			cfg := coupled
			if ep.Rank() < d.Tiles() {
				ph := physics.New(physics.Default()) // per-tile SST
				cfg.Atmos.Forcing, cfg.Physics = ph, ph
			}
			cp, err := gcm.NewCoupled(cfg, ep)
			if err != nil {
				t.Error(err)
				return func() {}
			}
			return func() { cp.Run(1) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			extra := steadyAllocs(t, c.nodes, c.short, c.long, c.op)
			perOp := float64(extra) / float64(c.long-c.short)
			t.Logf("%d allocations over %d operations after the first %d: %.3f per op", extra, c.long-c.short, c.short, perOp)
			if perOp > c.ceiling {
				t.Errorf("%s allocates %.3f times per operation in steady state (%d over %d operations), ceiling %g",
					c.name, perOp, extra, c.long-c.short, c.ceiling)
			}
		})
	}
}

// steadyAllocs runs op long times on every rank of one nodes×1 Hyades
// machine and returns the allocations counted between rank 0's short-th
// and long-th operation.
func steadyAllocs(t *testing.T, nodes, short, long int, op func(t *testing.T, ep comm.Endpoint) func()) int64 {
	cl, err := cluster.New(cluster.DefaultConfig(nodes, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	var at [2]uint64
	cl.Start(func(w *cluster.Worker) {
		run := op(t, lib.Bind(w))
		for i := 1; i <= long; i++ {
			run()
			if w.Rank == 0 && (i == short || i == long) {
				runtime.ReadMemStats(&ms)
				at[i/long] = ms.Mallocs
			}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return int64(at[1] - at[0])
}
