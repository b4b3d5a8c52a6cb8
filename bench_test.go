package hyades

// One benchmark per table and figure of the paper's evaluation, plus
// ablations of this reproduction's own design choices.  Benchmarks
// report the paper-relevant quantities as custom metrics (simulated
// microseconds, MFlop/s), so `go test -bench=. -benchmem` regenerates
// the evaluation in one run; the cmd/ tools print the same data as
// formatted tables.

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
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/solver"
	"hyades/internal/gcm/tile"
	"hyades/internal/logp"
	"hyades/internal/mpistart"
	"hyades/internal/netmodel"
	"hyades/internal/perfmodel"
	"hyades/internal/units"
	"hyades/internal/vector"
)

// BenchmarkFig2LogP regenerates the LogP table (Fig. 2).
func BenchmarkFig2LogP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := logp.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Os.Micros(), "Os8B_us")
		b.ReportMetric(rows[0].HalfRTT.Micros(), "halfRTT8B_us")
		b.ReportMetric(rows[1].HalfRTT.Micros(), "halfRTT64B_us")
	}
}

// BenchmarkFig7Bandwidth regenerates three anchor points of the
// bandwidth-vs-block-size curve (Fig. 7).
func BenchmarkFig7Bandwidth(b *testing.B) {
	r := bench.HyadesRunner{PPN: 1}
	for i := 0; i < b.N; i++ {
		oneK, err := bench.TransferBandwidth(r, 1024, 3)
		if err != nil {
			b.Fatal(err)
		}
		nineK, err := bench.TransferBandwidth(r, 9*1024, 3)
		if err != nil {
			b.Fatal(err)
		}
		peak, err := bench.TransferBandwidth(r, 128*1024, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(oneK.MBperSec(), "MBs_1KiB")
		b.ReportMetric(nineK.MBperSec(), "MBs_9KiB")
		b.ReportMetric(peak.MBperSec(), "MBs_128KiB")
	}
}

// BenchmarkSec42GlobalSum regenerates the §4.2 global-sum latencies.
func BenchmarkSec42GlobalSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l16, err := bench.Gsum(bench.HyadesRunner{PPN: 1}, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		l2x8, err := bench.Gsum(bench.HyadesRunner{PPN: 2}, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(l16.Micros(), "us_16way")
		b.ReportMetric(l2x8.Micros(), "us_2x8way")
	}
}

// BenchmarkFig10Sustained regenerates the sustained-performance table:
// the simulated Hyades rates on 1 and 16 processors and the vector-
// machine roofline estimates.
func BenchmarkFig10Sustained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		serialCfg := gcm.CoarseOceanConfig(tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true})
		m1, elapsed, err := gcm.RunSerial(serialCfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		one := float64(m1.C.PS+m1.C.DS) / elapsed.Seconds() / 1e6
		res, err := gcm.RunParallel(8, 2, gcm.CoarseOceanConfig(bench.ScalingDecomp()), 1, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(one, "MFs_1proc")
		b.ReportMetric(res.SustainedMFlops(), "MFs_16proc")
		b.ReportMetric(res.SustainedMFlops()/one, "speedup")
		b.ReportMetric(vector.Fig10Machines()[0].SustainedGFlops()*1000, "MFs_YMP1")
	}
}

// BenchmarkFig11Params regenerates the performance-model parameters.
func BenchmarkFig11Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := bench.MeasureHyades()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.Tgsum.Micros(), "tgsum_us")
		b.ReportMetric(p.Texchxy.Micros(), "texchxy_us")
		b.ReportMetric(p.Texchxyz.Micros(), "texchxyz_atm_us")
		b.ReportMetric(p.Ocean3D.Micros(), "texchxyz_ocean_us")
	}
}

// BenchmarkValidation regenerates the §5.3 model validation: predicted
// versus simulated-observed runtime of the one-year atmosphere.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := gcm.CoarseAtmosphereConfig(bench.ScalingDecomp())
		cfg.Forcing = physics.New(physics.Default())
		res, err := gcm.RunParallel(8, 2, cfg, 1, 4)
		if err != nil {
			b.Fatal(err)
		}
		year := res.PerStep().Minutes() * 77760
		b.ReportMetric(year, "simYear_min")
		exp, observed := perfmodel.PaperValidation()
		b.ReportMetric(exp.Trun().Minutes(), "paperModel_min")
		b.ReportMetric(observed.Minutes(), "paperObserved_min")
	}
}

// BenchmarkFig12Pfpp regenerates the Pfpp table from primitives
// measured on the three machines.
func BenchmarkFig12Pfpp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arctic, err := bench.MeasureHyades()
		if err != nil {
			b.Fatal(err)
		}
		ge, err := bench.MeasureNet(netmodel.GigabitEthernet())
		if err != nil {
			b.Fatal(err)
		}
		fe, err := bench.MeasureNet(netmodel.FastEthernet())
		if err != nil {
			b.Fatal(err)
		}
		ra := perfmodel.Fig12Row("Arctic", arctic.Tgsum, arctic.Texchxy, arctic.Texchxyz)
		rg := perfmodel.Fig12Row("G.E.", ge.Tgsum, ge.Texchxy, ge.Texchxyz)
		rf := perfmodel.Fig12Row("F.E.", fe.Tgsum, fe.Texchxy, fe.Texchxyz)
		b.ReportMetric(ra.PfppDS, "PfppDS_Arctic")
		b.ReportMetric(rg.PfppDS, "PfppDS_GE")
		b.ReportMetric(rf.PfppDS, "PfppDS_FE")
		b.ReportMetric(ra.PfppPS, "PfppPS_Arctic")
	}
}

// BenchmarkHPVMComparison regenerates the §6 Myrinet/HPVM anchors.
func BenchmarkHPVMComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		barrier, err := bench.Gsum(bench.NetRunner{Prm: netmodel.MyrinetHPVM()}, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		ours, err := bench.Gsum(bench.HyadesRunner{PPN: 1}, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(barrier.Micros(), "HPVM16_us")
		b.ReportMetric(barrier.Micros()/ours.Micros(), "HPVMvsHyades_x")
	}
}

// BenchmarkAblationPreconditioner compares the DS solver with the SSOR
// and Jacobi preconditioners — the design choice that brings Ni near
// the paper's 60.
func BenchmarkAblationPreconditioner(b *testing.B) {
	run := func(pre solver.Precond) (ni float64) {
		cfg := gcm.CoarseOceanConfig(tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true})
		cfg.FpsMFlops, cfg.FdsMFlops = 0, 0
		m, _, err := gcm.RunSerialWithPrecond(cfg, 4, pre)
		if err != nil {
			b.Fatal(err)
		}
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
func BenchmarkExchange(b *testing.B) {
	b.ReportAllocs()
	cl, err := cluster.New(cluster.DefaultConfig(2, 1))
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
func BenchmarkGlobalSum(b *testing.B) {
	b.ReportAllocs()
	cl, err := cluster.New(cluster.DefaultConfig(16, 1))
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

// BenchmarkSchedule measures the raw event-scheduler hot loop —
// enqueue, dequeue and a periodic arm-and-cancel — against a steady
// backlog of 1e3, 1e5 and 1e7 pending events, for both the ladder
// queue (the default) and the binary heap it replaced.  The
// events_per_sec metric counts scheduler operations (pushes + pops,
// including the cancel pairs); the ladder's flat profile against the
// heap's log-N climb is the scheduler-replacement headline.
func BenchmarkSchedule(b *testing.B) {
	for _, s := range []struct {
		name string
		kind des.SchedulerKind
	}{{"ladder", des.SchedLadder}, {"heap", des.SchedHeap}} {
		for _, pending := range []int{1e3, 1e5, 1e7} {
			b.Run(fmt.Sprintf("%s/pending=%.0e", s.name, float64(pending)), func(b *testing.B) {
				benchSchedule(b, s.kind, pending)
			})
		}
	}
}

func benchSchedule(b *testing.B, kind des.SchedulerKind, pending int) {
	b.ReportAllocs()
	e := des.NewEngineWithScheduler(kind)
	defer e.Close()
	noop := func() {}
	// xorshift keeps the offered timestamp stream identical across
	// scheduler kinds without math/rand overhead in the hot loop.
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
			e.After(next(), noop).Cancel()
		}
		e.Step()
	}
	b.StopTimer()
	ops := 2*float64(b.N) + 2*float64((b.N+7)/8)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "events_per_sec")
}

// BenchmarkCoupledStep measures one step of a 16-rank coupled
// ocean–atmosphere run, across host worker-pool sizes: "inline" runs
// every compute phase on the DES baton, "pool1" pays the pool's
// handoff with no parallelism, "poolMax" uses GOMAXPROCS workers.  The
// inline/poolMax ratio of ns/op is the wall-clock speedup of the
// parallel execution layer (simulated time is identical by contract).
func BenchmarkCoupledStep(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"inline", -1}, {"pool1", 1}, {"poolMax", 0}} {
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
