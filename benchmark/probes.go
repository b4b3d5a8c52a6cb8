package main

import (
	"bytes"
	"runtime"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/gcm"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/units"
)

// Layer probes: the unit cost of each layer, measured alone through its
// public functions.  Each probe runs batches of work until its budget
// is spent (at least minBatches of them) and reports the median batch.
// A probe's batch function builds whatever it needs, runs n units and
// returns the wall time of the timed part and the units' event count.

const minBatches = 20

// nProbes is the number of probe() calls in runProbes; the driver form
// divides its probe budget by it.
const nProbes = 16

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// batchFn runs n units of work.
type batchFn func(n int) (wall time.Duration, events uint64)

// probe sizes a batch so that minBatches fit the budget, then reports
// median ns and events per unit.
func probe(budget time.Duration, run batchFn) (nsPerUnit, eventsPerUnit float64) {
	target := budget / (minBatches + 5)
	n := 16
	for {
		d, _ := run(n)
		if d >= target || n >= 1<<24 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(target) / float64(d)
		}
		if grow > 16 {
			grow = 16
		}
		if grow < 1.1 {
			grow = 1.1
		}
		n = int(float64(n)*grow) + 1
	}
	var ns, ev []float64
	start := time.Now()
	for len(ns) < minBatches || time.Since(start) < budget {
		d, e := run(n)
		ns = append(ns, float64(d)/float64(n))
		ev = append(ev, float64(e)/float64(n))
	}
	return median(ns), median(ev)
}

// runProbes measures every layer probe into v.
func runProbes(v map[string]float64, budget time.Duration) {
	v["des.sched_ns.1e3"], _ = probe(budget, schedBatch(1e3))
	v["des.sched_ns.1e5"], _ = probe(budget, schedBatch(1e5))
	v["des.delay_ns"], _ = probe(budget, delayBatch)
	v["des.handoff_ns"], _ = probe(budget, handoffBatch)
	v["des.pool_exec_ns"], _ = probe(budget, poolExecBatch)

	v["arctic.ns_per_hop.16"], v["arctic.events_per_hop.16"] = probe(budget, fabricBatch(16))
	v["arctic.ns_per_hop.64"], v["arctic.events_per_hop.64"] = probe(budget, fabricBatch(64))
	v["arctic.codec_ns_per_packet"], _ = probe(budget, codecBatch)

	v["startx.pio_ns_per_msg"], v["startx.pio_events_per_msg"] = probe(budget, pioBatch)
	v["startx.dma_ns_per_kib"], v["startx.dma_events_per_kib"] = probe(budget, dmaBatch)

	ocean := newKernelProbe(gcm.CoarseOceanConfig(probeTile))
	v["gcm.kernel.advect_ns_per_cell"], _ = probe(budget, ocean.sweep(kernel.ComputeGTracers))
	v["gcm.kernel.momentum_ns_per_cell"], _ = probe(budget, ocean.sweep(kernel.ComputeGMomentum))
	v["gcm.solver.cg_ns_per_col_iter"], _ = probe(budget, ocean.cg)
	v["gcm.checkpoint_write_ns_per_byte"], _ = probe(budget, ocean.checkpointWrite)
	v["gcm.checkpoint_restore_ns_per_byte"], _ = probe(budget, ocean.checkpointRestore)
	atmos := newKernelProbe(gcm.CoarseAtmosphereConfig(probeTile))
	v["gcm.physics_ns_per_col"], _ = probe(budget, atmos.physics)
}

// ---- des ----

// schedBatch measures Schedule+Step against a steady backlog of pending
// events, with the xorshift timestamp stream of BenchmarkSchedule.
func schedBatch(pending int) batchFn {
	return func(n int) (time.Duration, uint64) {
		e := des.NewEngine()
		defer e.Close()
		noop := func() {}
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
		e.Step() // absorb the ladder's initial top-to-rung conversion
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Schedule(next(), noop)
			e.Step()
		}
		return time.Since(t0), 0
	}
}

// delayBatch measures Proc.Delay waking its own process.
func delayBatch(n int) (time.Duration, uint64) {
	e := des.NewEngine()
	defer e.Close()
	e.Spawn("delay", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(units.Nanosecond)
		}
	})
	t0 := time.Now()
	e.Run()
	return time.Since(t0), e.Events()
}

// handoffBatch measures the baton moving between two processes over a
// pair of mailboxes; a unit is one handoff.
func handoffBatch(n int) (time.Duration, uint64) {
	e := des.NewEngine()
	defer e.Close()
	ping := des.NewMailbox[int](e, "ping")
	pong := des.NewMailbox[int](e, "pong")
	e.Spawn("a", func(p *des.Proc) {
		for i := 0; i < n/2; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	e.Spawn("b", func(p *des.Proc) {
		for i := 0; i < n/2; i++ {
			pong.Send(ping.Recv(p))
		}
	})
	t0 := time.Now()
	e.Run()
	return time.Since(t0), e.Events()
}

// poolExecBatch measures an empty Proc.Exec through the worker pool.
func poolExecBatch(n int) (time.Duration, uint64) {
	e := des.NewEngine()
	defer e.Close()
	pool := des.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	e.SetPool(pool)
	noop := func() {}
	e.Spawn("exec", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			p.Exec(units.Nanosecond, noop)
		}
	})
	t0 := time.Now()
	e.Run()
	return time.Since(t0), e.Events()
}

// ---- arctic ----

// fabricBatch measures the fabric alone: packets between callback
// endpoints, each sent halfway round the machine so it climbs to the
// top stage.  A unit is one link crossing.
func fabricBatch(endpoints int) batchFn {
	return func(n int) (time.Duration, uint64) {
		e := des.NewEngine()
		defer e.Close()
		fab, err := arctic.New(e, arctic.DefaultConfig(endpoints))
		if err != nil {
			panic(err)
		}
		for i := 0; i < endpoints; i++ {
			fab.Attach(i, func(*arctic.Packet) {})
		}
		hops := fab.HopsBetween(0, endpoints/2)
		waves := n/(hops*endpoints) + 1
		payload := make([]uint32, arctic.MinPayloadWords)
		t0 := time.Now()
		for w := 0; w < waves; w++ {
			for src := 0; src < endpoints; src++ {
				p := fab.AcquirePacket()
				p.Pri = arctic.Low
				p.Payload = payload
				fab.RouteFor(p, src, (src+endpoints/2)%endpoints)
				fab.Inject(src, p)
			}
			e.Run()
		}
		d := time.Since(t0)
		// Scale to the n units asked for: the waves ran slightly more.
		crossed := waves * endpoints * hops
		return d * time.Duration(n) / time.Duration(crossed), e.Events() * uint64(n) / uint64(crossed)
	}
}

// codecBatch measures sealing, encoding and decoding a full packet.
func codecBatch(n int) (time.Duration, uint64) {
	p := &arctic.Packet{Pri: arctic.Low, Tag: 5, Payload: make([]uint32, arctic.MaxPayloadWords), Src: 1, Dst: 2, DownRoute: 2}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Payload[0] = uint32(i)
		p.Seal()
		words, err := p.Encode()
		if err != nil {
			panic(err)
		}
		if _, err := arctic.Decode(words); err != nil {
			panic(err)
		}
	}
	return time.Since(t0), 0
}

// ---- startx (with pci, node) ----

// pairBatch runs body on the two processors of a 2-node machine.
func pairBatch(body func(w *cluster.Worker)) (time.Duration, uint64) {
	cl, err := cluster.New(cluster.DefaultConfig(2, 1))
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	cl.Start(body)
	t0 := time.Now()
	if err := cl.Run(); err != nil {
		panic(err)
	}
	return time.Since(t0), cl.Eng.Events()
}

// pioBatch is an 8-byte PIOSend/PIORecv ping-pong; a unit is one
// message.
func pioBatch(n int) (time.Duration, uint64) {
	return pairBatch(func(w *cluster.Worker) {
		niu, peer := w.Node.NIU, 1-w.Rank
		words := make([]uint32, 2)
		for i := 0; i < n/2; i++ {
			if w.Rank == 0 {
				niu.PIOSend(w.Proc, peer, 1, words, arctic.Low)
			}
			// The received payload is ours to send back.
			words = niu.PIORecv(w.Proc, arctic.Low).Words
			if w.Rank == 1 {
				niu.PIOSend(w.Proc, peer, 1, words, arctic.Low)
			}
		}
	})
}

const dmaProbeKiB = 8

// dmaBatch is an 8 KiB DMASend/VIRecv ping-pong; a unit is one KiB.
func dmaBatch(n int) (time.Duration, uint64) {
	return pairBatch(func(w *cluster.Worker) {
		niu, peer := w.Node.NIU, 1-w.Rank
		data := make([]byte, dmaProbeKiB<<10)
		for i := 0; i < n/(2*dmaProbeKiB)+1; i++ {
			if w.Rank == 0 {
				niu.DMASend(w.Proc, peer, 1, data, arctic.Low)
			}
			data = niu.VIRecv(w.Proc).Data
			if w.Rank == 1 {
				niu.DMASend(w.Proc, peer, 1, data, arctic.Low)
			}
		}
	})
}

// ---- gcm ----

// probeTile is the 32x32 tile of the paper's production decomposition,
// run alone on the serial endpoint.
var probeTile = tile.Decomp{NXg: 32, NYg: 32, Px: 1, Py: 1, PeriodicX: true}

// kernelProbe holds one spun-up tile model.
type kernelProbe struct {
	cfg   gcm.Config
	m     *gcm.Model
	cells int
	cols  int
	blob  []byte
}

func newKernelProbe(cfg gcm.Config) *kernelProbe {
	cfg.Grid.NX, cfg.Grid.NY = probeTile.NXg, probeTile.NYg
	ph := physics.New(physics.Default())
	if cfg.Iso == gcm.Atmosphere {
		cfg.Forcing = ph
	}
	m, err := gcm.New(cfg, &comm.Serial{})
	if err != nil {
		panic(err)
	}
	m.Run(3) // fill the Adams-Bashforth history
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		panic(err)
	}
	cols := cfg.Grid.NX * cfg.Grid.NY
	return &kernelProbe{cfg: cfg, m: m, cells: cols * cfg.Grid.NZ, cols: cols, blob: buf.Bytes()}
}

// sweep measures one kernel sweep; a unit is one cell.
func (k *kernelProbe) sweep(fn func(*grid.Local, *kernel.State, *kernel.Params, *kernel.Counters)) batchFn {
	return func(n int) (time.Duration, uint64) {
		reps := n/k.cells + 1
		var c kernel.Counters
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn(k.m.G, k.m.S, &k.m.Cfg.Kernel, &c)
		}
		return time.Since(t0) * time.Duration(n) / time.Duration(reps*k.cells), 0
	}
}

// cg measures the pressure solve from a cold start; a unit is one
// column of one CG iteration.
func (k *kernelProbe) cg(n int) (time.Duration, uint64) {
	var c kernel.Counters
	m := k.m
	work := 0
	var d time.Duration
	for work < n {
		rhs := m.Solver.BuildRHS(m.S, m.Cfg.Kernel.Dt, &c)
		m.S.Ps.Fill(0)
		t0 := time.Now()
		iters := m.Solver.Solve(m.S.Ps, rhs, &c)
		d += time.Since(t0)
		work += (iters + 1) * k.cols
	}
	return d * time.Duration(n) / time.Duration(work), 0
}

// physics measures the atmospheric physics package; a unit is one
// column.
func (k *kernelProbe) physics(n int) (time.Duration, uint64) {
	reps := n/k.cols + 1
	var c kernel.Counters
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		k.cfg.Forcing.AddTendencies(k.m.G, k.m.S, &k.m.Cfg.Kernel, &c)
	}
	return time.Since(t0) * time.Duration(n) / time.Duration(reps*k.cols), 0
}

// checkpointWrite measures serializing the tile; a unit is one byte.
func (k *kernelProbe) checkpointWrite(n int) (time.Duration, uint64) {
	reps := n/len(k.blob) + 1
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		if err := k.m.Checkpoint(&buf); err != nil {
			panic(err)
		}
	}
	return time.Since(t0) * time.Duration(n) / time.Duration(reps*len(k.blob)), 0
}

// checkpointRestore measures loading it back, halo refresh included.
func (k *kernelProbe) checkpointRestore(n int) (time.Duration, uint64) {
	reps := n/len(k.blob) + 1
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := k.m.Restore(bytes.NewReader(k.blob)); err != nil {
			panic(err)
		}
	}
	return time.Since(t0) * time.Duration(n) / time.Duration(reps*len(k.blob)), 0
}
