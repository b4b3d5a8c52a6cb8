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
// allocations per operation: a pairwise 1-KiB exchange between nodes and
// within one SMP, a 16-way global sum on 16 nodes and on 8 SMPs of two,
// and a step of the 16-rank coupled model.  One simulated machine
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
		name                    string
		nodes, ppn, short, long int
		ceiling                 float64 // allocations per operation
		op                      func(t *testing.T, ep comm.Endpoint) func()
	}{
		{"Exchange", 2, 1, 100, 1000, 0.05, exchangeOp},
		{"ExchangeIntraNode", 1, 2, 100, 1000, 0.05, exchangeOp},
		{"GlobalSum", 16, 1, 100, 1000, 0.05, globalSumOp},
		{"GlobalSumMixMode", 8, 2, 100, 1000, 0.05, globalSumOp},
		{"CoupledStep", 16, 1, 10, 50, 1, func(t *testing.T, ep comm.Endpoint) func() {
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
			extra := steadyAllocs(t, c.nodes, c.ppn, c.short, c.long, c.op)
			perOp := float64(extra) / float64(c.long-c.short)
			t.Logf("%d allocations over %d operations after the first %d: %.3f per op", extra, c.long-c.short, c.short, perOp)
			if perOp > c.ceiling {
				t.Errorf("%s allocates %.3f times per operation in steady state (%d over %d operations), ceiling %g",
					c.name, perOp, extra, c.long-c.short, c.ceiling)
			}
		})
	}
}

// exchangeOp is a 1-KiB exchange with the neighbouring rank.
func exchangeOp(t *testing.T, ep comm.Endpoint) func() {
	buf, layout := make([]byte, 1024), comm.Contiguous(1024, true)
	return func() { ep.Exchange(ep.Rank()^1, buf, layout) }
}

// globalSumOp is a global sum over every rank.
func globalSumOp(t *testing.T, ep comm.Endpoint) func() {
	return func() { ep.GlobalSum(1) }
}

// steadyAllocs runs op long times on every rank of one nodes×ppn Hyades
// machine and returns the allocations counted between rank 0's short-th
// and long-th operation.
func steadyAllocs(t *testing.T, nodes, ppn, short, long int, op func(t *testing.T, ep comm.Endpoint) func()) int64 {
	cl, err := cluster.New(cluster.DefaultConfig(nodes, ppn))
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
