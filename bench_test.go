package hyades

// Ablations of this reproduction's own design choices, the E11 scaling
// point and the hot-path microbenchmarks.  Benchmarks report the
// paper-relevant quantities as custom metrics (simulated microseconds,
// MFlop/s); the paper's own evaluation is one table, printed by
// cmd/paper and reported row by row by its BenchmarkPaper.

import (
	"bytes"
	"fmt"
	"testing"

	"hyades/internal/bench"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/gcm"
	"hyades/internal/gcm/solver"
	"hyades/internal/gcm/tile"
	"hyades/internal/mpistart"
	"hyades/internal/units"
)

// BenchmarkAblationPreconditioner compares the DS solver with the SSOR
// and Jacobi preconditioners — the design choice that brings Ni near
// the paper's 60.
func BenchmarkAblationPreconditioner(b *testing.B) {
	run := func(pre solver.Precond) (ni float64) {
		cfg := gcm.CoarseOceanConfig(tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true})
		m, err := gcm.New(cfg, &comm.Serial{})
		if err != nil {
			b.Fatal(err)
		}
		m.Solver.Pre = pre
		m.Run(4)
		return m.Solver.MeanIters()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(solver.PrecondSSOR), "Ni_SSOR")
		b.ReportMetric(run(solver.PrecondJacobi), "Ni_Jacobi")
	}
}

// BenchmarkAblationMixMode compares sixteen workers arranged as 16
// single-processor nodes versus 8 dual-processor SMPs: the mix-mode
// shared-memory paths trade NIU contention for cheap intra-node
// exchanges.
func BenchmarkAblationMixMode(b *testing.B) {
	cfg := gcm.CoarseOceanConfig(bench.ScalingDecomp())
	for i := 0; i < b.N; i++ {
		r16x1, err := gcm.RunParallel(16, 1, cfg, 1, 3)
		if err != nil {
			b.Fatal(err)
		}
		r8x2, err := gcm.RunParallel(8, 2, cfg, 1, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r16x1.PerStep().Millis(), "ms_16x1")
		b.ReportMetric(r8x2.PerStep().Millis(), "ms_8x2")
	}
}

// BenchmarkScalingStudy regenerates the E11 strong-scaling extension's
// 16-worker point and its model prediction.
func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true}
		res, err := gcm.RunParallel(16, 1, gcm.CoarseOceanConfig(d), 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SustainedMFlops(), "MFs_16nodes")
		comm := res.ExchangeTime + res.GsumTime
		b.ReportMetric(100*float64(comm)/float64(comm+res.ComputeTime), "commPct")
	}
}

// BenchmarkAblationMPIvsCustom quantifies §6's central claim on
// identical simulated hardware: the application-specific global sum
// against the general-purpose MPI-StarT allreduce.
func BenchmarkAblationMPIvsCustom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		custom, err := bench.Gsum(bench.HyadesRunner{PPN: 1}, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		mpi := measureMPIAllreduce(b, 16, 8)
		b.ReportMetric(custom.Micros(), "us_custom")
		b.ReportMetric(mpi.Micros(), "us_mpistart")
		b.ReportMetric(mpi.Micros()/custom.Micros(), "generalityTax_x")
	}
}

// ---- Hot-path microbenchmarks ----
//
// Unlike the figure benchmarks above, which rebuild a machine every
// iteration (so allocs/op is dominated by construction), these run b.N
// operations inside one simulated machine: ns/op and allocs/op measure
// the per-operation cost of the communication hot path itself, and the
// simulated_us metric reports the virtual time per operation.

// BenchmarkExchange measures one pairwise 1-KiB VI-mode exchange.
func BenchmarkExchange(b *testing.B) { benchExchange(b, 2, 1) }

// BenchmarkExchangeIntraNode measures one 1-KiB exchange between the two
// processors of an SMP, through shared memory.
func BenchmarkExchangeIntraNode(b *testing.B) { benchExchange(b, 1, 2) }

func benchExchange(b *testing.B, nodes, ppn int) {
	b.ReportAllocs()
	cl, err := cluster.New(cluster.DefaultConfig(nodes, ppn))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		b.Fatal(err)
	}
	var elapsed units.Time
	cl.Start(func(w *cluster.Worker) {
		ep := lib.Bind(w)
		peer := 1 - w.Rank
		buf := make([]byte, 1024)
		layout := comm.Contiguous(1024, true)
		ep.Exchange(peer, buf, layout) // warm-up
		ep.Barrier()
		start := ep.Now()
		for i := 0; i < b.N; i++ {
			ep.Exchange(peer, buf, layout)
		}
		if w.Rank == 0 {
			elapsed = ep.Now() - start
		}
	})
	if err := cl.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(elapsed.Micros()/float64(b.N), "simulated_us")
}

// BenchmarkGlobalSum measures one 16-way butterfly global sum.
func BenchmarkGlobalSum(b *testing.B) { benchGlobalSum(b, 16, 1) }

// BenchmarkGlobalSumMixMode measures one 16-way global sum on eight SMPs
// of two: the shared-memory gather, the butterfly among the masters and
// the scatter.
func BenchmarkGlobalSumMixMode(b *testing.B) { benchGlobalSum(b, 8, 2) }

func benchGlobalSum(b *testing.B, nodes, ppn int) {
	b.ReportAllocs()
	cl, err := cluster.New(cluster.DefaultConfig(nodes, ppn))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		b.Fatal(err)
	}
	var elapsed units.Time
	cl.Start(func(w *cluster.Worker) {
		ep := lib.Bind(w)
		ep.GlobalSum(1) // warm-up alignment
		start := ep.Now()
		for i := 0; i < b.N; i++ {
			ep.GlobalSum(float64(i))
		}
		if w.Rank == 0 {
			elapsed = ep.Now() - start
		}
	})
	if err := cl.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(elapsed.Micros()/float64(b.N), "simulated_us")
}

// BenchmarkSchedule measures the raw event-queue hot loop — enqueue,
// dequeue and a periodic arm-and-cancel — against a steady backlog of
// 1e3, 1e5 and 1e7 pending events on the engine's ladder queue.  The
// events_per_sec metric counts queue operations (pushes + pops,
// including the cancel pairs); a flat profile across the three
// backlogs is the ladder's point.
func BenchmarkSchedule(b *testing.B) {
	for _, pending := range []int{1e3, 1e5, 1e7} {
		b.Run(fmt.Sprintf("ladder/pending=%.0e", float64(pending)), func(b *testing.B) {
			benchSchedule(b, pending)
		})
	}
}

func benchSchedule(b *testing.B, pending int) {
	b.ReportAllocs()
	e := des.NewEngine()
	defer e.Close()
	noop := func() {}
	var tm des.Timer
	tm.Init(e, noop)
	// xorshift keeps the offered timestamp stream identical from run
	// to run without math/rand overhead in the hot loop.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() units.Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return 1 + units.Time(rng%uint64(10*units.Millisecond))
	}
	for i := 0; i < pending; i++ {
		e.Schedule(next(), noop)
	}
	// One pop outside the timer absorbs the ladder's initial
	// top-to-rung conversion of the prefilled backlog; the loop then
	// measures the steady state rather than a startup transient.
	e.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(next(), noop)
		if i%8 == 0 {
			tm.Arm(next())
			tm.Cancel()
		}
		e.Step()
	}
	b.StopTimer()
	ops := 2*float64(b.N) + 2*float64((b.N+7)/8)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "events_per_sec")
}

// BenchmarkCoupledStep measures one step of a 16-rank coupled
// ocean–atmosphere run in the two ways a compute phase can run:
// "inline" on the DES baton at submission, "pool" through the attached
// pool, which runs it at its completion event (the pool has no host
// threads, and des.NewPool ignores its size).  The two should read
// within host noise of each other; simulated time is identical by
// contract.
func BenchmarkCoupledStep(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"inline", -1}, {"pool", 0}} {
		b.Run(c.name, func(b *testing.B) { benchCoupledSteps(b, c.workers) })
	}
}

func benchCoupledSteps(b *testing.B, workers int) {
	b.ReportAllocs()
	d := tile.Decomp{NXg: 32, NYg: 16, Px: 4, Py: 2, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 32, 16
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 32, 16
	cfg.CoupleEvery = 5

	res, err := gcm.RunCoupled(2*cfg.Ocean.Decomp.Tiles(), 1, cfg, b.N, gcm.ParallelOpts{Workers: workers}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.FinalTime.Millis()/float64(b.N), "simulated_ms")
	// The provisioning metric for the Fig. 9 science run: model years
	// integrated per hour of host wall clock, at this benchmark's grid
	// and time step.
	modelYears := float64(b.N) * cfg.Ocean.Kernel.Dt / (360 * 86400)
	if hours := b.Elapsed().Hours(); hours > 0 {
		b.ReportMetric(modelYears/hours, "model_years_per_wall_hour")
	}
}

func measureMPIAllreduce(b *testing.B, n, reps int) units.Time {
	cl, err := cluster.New(cluster.DefaultConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var start, end units.Time
	cl.Start(func(w *cluster.Worker) {
		c, err := mpistart.New(w, n)
		if err != nil {
			b.Error(err)
			return
		}
		c.Barrier(50)
		if c.Rank() == 0 {
			start = w.Proc.Now()
		}
		for i := 0; i < reps; i++ {
			c.Allreduce(1, 60+2*i)
		}
		if c.Rank() == 0 {
			end = w.Proc.Now()
		}
	})
	if err := cl.Run(); err != nil {
		b.Fatal(err)
	}
	return (end - start) / units.Time(reps)
}

// The crash-recovery benchmarks price the survival contract: what a
// checkpoint costs to take, what a restore costs to load, and what a
// whole crash-detect-rollback-replay cycle costs in virtual time.

// BenchmarkCheckpointWrite measures serializing one tile's full
// prognostic state (the per-rank cost of a coordinated checkpoint).
func BenchmarkCheckpointWrite(b *testing.B) {
	b.ReportAllocs()
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 1, Py: 1}
	cfg := gcm.GyreConfig(32, 32, 3, d)
	m, _, err := gcm.RunSerial(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkCheckpointRestore measures loading that state back,
// including the halo exchange that brings the overlap region current.
func BenchmarkCheckpointRestore(b *testing.B) {
	b.ReportAllocs()
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 1, Py: 1}
	cfg := gcm.GyreConfig(32, 32, 3, d)
	m, _, err := gcm.RunSerial(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	m2, err := gcm.New(cfg, &comm.Serial{})
	if err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m2.Restore(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(blob)))
}

// BenchmarkRecoveryOverhead measures one full crash cycle on a 4-node
// gyre — detection, rendezvous, epoch reset, restore, replay — and
// reports the availability metrics the report table prints: virtual
// recovery stall, rolled-back integration time, and checkpoint volume.
func BenchmarkRecoveryOverhead(b *testing.B) {
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2}
	cfg := gcm.GyreConfig(32, 32, 3, d)
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 200 * units.Millisecond, Until: 201 * units.Millisecond},
	}}
	var rec gcm.RecoveryResult
	for i := 0; i < b.N; i++ {
		res, err := gcm.RunParallelOpts(4, 1, cfg, 0, 12,
			gcm.ParallelOpts{Fault: fc, CheckpointEvery: 3})
		if err != nil {
			b.Fatal(err)
		}
		if res.Recovery.Restarts != 1 {
			b.Fatalf("staged 1 crash, survived %d", res.Recovery.Restarts)
		}
		rec = res.Recovery
	}
	b.ReportMetric(rec.RecoveryTime.Micros(), "recovery_us")
	b.ReportMetric(rec.LostVirtual.Micros(), "lost_virtual_us")
	b.ReportMetric(float64(rec.LostFlops), "replayed_flops")
	b.ReportMetric(float64(rec.CheckpointBytes), "ckpt_bytes")
}
