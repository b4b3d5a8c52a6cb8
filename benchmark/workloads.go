package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"hyades/internal/bench"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/units"
)

// A workload is one set of inputs the benchmark runs.  All seven are
// closed loops driven by one generator process: the next op starts
// when the previous one completes.
type workload struct {
	name string
	why  string

	// gated workloads are the ones BENCHMARK.json lists, so the driver
	// runs them and holds later changes to their bounds.  The suite runs
	// all seven.
	gated bool

	// Machine: nodes x ppn simulated processors; nodes == 0 runs on
	// the serial endpoint with no simulated machine at all.
	nodes, ppn int

	warmOps  int // untimed ops before the timed region
	blockOps int // ops per timed block; the first block is the check window

	// opSeconds is the model time one op integrates (0 for primitives).
	opSeconds float64

	// paper is the published quantity the simulated result is compared
	// with; nil means the paper gives no reference for this workload.
	paper *paperRef

	// newBody builds one rank's share of the workload.
	newBody func(in *inputs, rank int, ep comm.Endpoint) (body, error)

	// recover marks the crash-recovery workload, which runs through
	// gcm.RunParallelOpts instead of a rank body.
	recover bool
}

// paperRef is one published number and how to read ours off a window.
type paperRef struct {
	what  string
	value float64
	unit  string
	ours  func(w *window) float64
}

// body is one rank's share of a workload.
type body interface {
	op()                       // one operation
	save() error               // keep a copy of the state every block starts from
	restore() error            // put that state back (collective)
	digest(w io.Writer) error  // the rank's state, for the output check
	counts() bodyCounts        // cumulative work counters
	verify() (failedOps int64) // end-of-run output check
}

// folder is a body whose ranks must all have seen bit-identical
// results; foldSum is a running hash of them.
type folder interface{ foldSum() uint64 }

// bodyCounts are the model-level counters a body accumulates.
type bodyCounts struct {
	flopsPS, flopsDS int64
	cgIters, solves  int64
}

// scale shrinks a workload for the smoke test.
type scale struct {
	tiny bool
}

// inputs are everything a workload reads that depends on the seed.
// They are generated before any timing starts; the program under test
// sees only these values, never the seed.
type inputs struct {
	// theta[c] perturbs component c's initial potential temperature
	// (amplitude 1e-3 K), indexed [(k*ny+J)*nx+I] on the global grid.
	theta  [2][]float64
	nx, ny int

	// gsum payloads: vals[rank][i], and the host-side sums and
	// magnitudes they must add up to.
	gsumVals [][]float64
	gsumSum  []float64
	gsumAbs  []float64

	// exch field: interior value at global (I, J, k).
	exchSeed uint64

	// crashJitter scales recover4's two crash instants by 1 +- 2 %.
	crashJitter [2]float64
}

const thetaAmplitude = 1e-3 // K

func genTheta(rng *rand.Rand, n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = thetaAmplitude * (2*rng.Float64() - 1)
	}
	return t
}

// perturbInit wraps a model's initial condition with the seeded theta
// perturbation.  Only interior cells are touched: gcm.New brings the
// halos current before the first step.
func perturbInit(base func(*grid.Local, *kernel.State), tab []float64, nx, ny int) func(*grid.Local, *kernel.State) {
	return func(g *grid.Local, s *kernel.State) {
		base(g, s)
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				row := tab[(k*ny+g.J0+j)*nx+g.I0:]
				for i := 0; i < g.NX; i++ {
					s.Theta.Add(i, j, k, row[i])
				}
			}
		}
	}
}

// ---- model bodies ----

type modelBody struct {
	m     *gcm.Model
	start bytes.Buffer
}

func (b *modelBody) op()                      { b.m.Step() }
func (b *modelBody) save() error              { return b.m.Checkpoint(&b.start) }
func (b *modelBody) restore() error           { return b.m.Restore(bytes.NewReader(b.start.Bytes())) }
func (b *modelBody) digest(w io.Writer) error { return b.m.Checkpoint(w) }
func (b *modelBody) verify() int64            { return finiteOrAll(b.m) }
func (b *modelBody) counts() bodyCounts {
	return bodyCounts{b.m.C.PS, b.m.C.DS, b.m.Solver.TotalIters, b.m.Solver.Solves}
}

// finiteOrAll fails every step if the integration blew up.
func finiteOrAll(m *gcm.Model) int64 {
	for _, f := range []*field.F3{m.S.Theta, m.S.U, m.S.V} {
		for _, v := range f.Raw() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return int64(m.Steps)
			}
		}
	}
	return 0
}

type coupledBody struct {
	c     *gcm.Coupled
	start bytes.Buffer
}

func (b *coupledBody) op()                      { b.c.Run(1) }
func (b *coupledBody) save() error              { return b.c.Checkpoint(&b.start) }
func (b *coupledBody) restore() error           { return b.c.Restore(bytes.NewReader(b.start.Bytes())) }
func (b *coupledBody) digest(w io.Writer) error { return b.c.Checkpoint(w) }
func (b *coupledBody) verify() int64            { return finiteOrAll(b.c.M) }
func (b *coupledBody) counts() bodyCounts {
	m := b.c.M
	return bodyCounts{m.C.PS, m.C.DS, m.Solver.TotalIters, m.Solver.Solves}
}

// oceanConfig is the paper's 128x64x15 ocean on decomposition d, or a
// 32x16x4 miniature of it at tiny scale.
func oceanConfig(in *inputs, d tile.Decomp) gcm.Config {
	cfg := gcm.CoarseOceanConfig(d)
	if d.NXg != 128 {
		cfg.Grid.NZ = 4
		cfg.Grid.DZ = []float64{250, 500, 1000, 2250}
	}
	cfg.Init = perturbInit(cfg.Init, in.theta[0], in.nx, in.ny)
	return cfg
}

func oceanBody(d tile.Decomp) func(*inputs, int, comm.Endpoint) (body, error) {
	return func(in *inputs, rank int, ep comm.Endpoint) (body, error) {
		m, err := gcm.New(oceanConfig(in, d), ep)
		if err != nil {
			return nil, err
		}
		return &modelBody{m: m}, nil
	}
}

// coupledDecomp is BenchmarkCoupledStep's shape: 32x16 lateral cells in
// 4x2 tiles per component.
var coupledDecomp = tile.Decomp{NXg: 32, NYg: 16, Px: 4, Py: 2, PeriodicX: true}

func newCoupledBody(in *inputs, rank int, ep comm.Endpoint) (body, error) {
	d := coupledDecomp
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = d.NXg, d.NYg
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = d.NXg, d.NYg
	cfg.CoupleEvery = 5
	cfg.Ocean.Init = perturbInit(cfg.Ocean.Init, in.theta[0], in.nx, in.ny)
	cfg.Atmos.Init = perturbInit(cfg.Atmos.Init, in.theta[1], in.nx, in.ny)
	if rank < d.Tiles() {
		// Each atmosphere worker needs its own physics instance (per-tile SST).
		ph := physics.New(physics.Default())
		cfg.Atmos.Forcing = ph
		cfg.Physics = ph
	}
	c, err := gcm.NewCoupled(cfg, ep)
	if err != nil {
		return nil, err
	}
	return &coupledBody{c: c}, nil
}

// ---- primitive bodies ----

// gsumBody issues seeded global sums.  Every result is checked against
// the host-side sum as it arrives, and folded into a running hash so
// the ranks can be compared bit for bit.
type gsumBody struct {
	ep     comm.Endpoint
	in     *inputs
	vals   []float64
	i      int
	ops    int64
	fold   uint64
	failed int64
	start  struct { // what every block starts from
		i    int
		ops  int64
		fold uint64
	}
}

func newGsumBody(in *inputs, rank int, ep comm.Endpoint) (body, error) {
	return &gsumBody{ep: ep, in: in, vals: in.gsumVals[rank]}, nil
}

func (b *gsumBody) op() {
	i := b.i
	got := b.ep.GlobalSum(b.vals[i])
	if !(math.Abs(got-b.in.gsumSum[i]) <= 1e-12*b.in.gsumAbs[i]) {
		b.failed++
	}
	b.fold = (b.fold ^ math.Float64bits(got)) * 0x100000001b3
	b.ops++
	if b.i++; b.i == len(b.vals) {
		b.i = 0
	}
}

func (b *gsumBody) save() error {
	b.start.i, b.start.ops, b.start.fold = b.i, b.ops, b.fold
	return nil
}

func (b *gsumBody) restore() error {
	b.i, b.ops, b.fold = b.start.i, b.start.ops, b.start.fold
	return nil
}

func (b *gsumBody) digest(w io.Writer) error {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(b.ops))
	binary.LittleEndian.PutUint64(buf[8:], b.fold)
	_, err := w.Write(buf[:])
	return err
}

func (b *gsumBody) counts() bodyCounts { return bodyCounts{} }
func (b *gsumBody) verify() int64      { return b.failed }
func (b *gsumBody) foldSum() uint64    { return b.fold }

// exchBody refreshes the halo of one seeded 3-D field.
type exchBody struct {
	h          *tile.Halo
	f          *field.F3
	d          tile.Decomp
	seed       uint64
	nz, width  int
	i0, j0     int
	ops        int64
	nx, ny     int
	haloFailed bool
}

// exchValue is the seeded field at global cell (I, J, k).
func exchValue(seed uint64, i, j, k int) float64 {
	x := seed ^ uint64(i)<<40 ^ uint64(j)<<20 ^ uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func exchBody3(d tile.Decomp, nz, width int) func(*inputs, int, comm.Endpoint) (body, error) {
	return func(in *inputs, rank int, ep comm.Endpoint) (body, error) {
		h, err := tile.NewHalo(ep, d)
		if err != nil {
			return nil, err
		}
		nx, ny := d.TileSize()
		b := &exchBody{h: h, d: d, seed: in.exchSeed, nz: nz, width: width, nx: nx, ny: ny}
		b.i0, b.j0 = d.Origin(rank)
		b.f = field.NewF3(nx, ny, nz, width)
		b.f.Fill(math.NaN()) // an unfilled halo cell cannot pass for a value
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					b.f.Set(i, j, k, exchValue(b.seed, b.i0+i, b.j0+j, k))
				}
			}
		}
		return b, nil
	}
}

func (b *exchBody) op() {
	b.h.Update3(b.f, b.width)
	b.ops++
}

// A halo update leaves the interiors alone: every op starts from the
// same state as it is.
func (b *exchBody) save() error    { return nil }
func (b *exchBody) restore() error { return nil }

func (b *exchBody) digest(w io.Writer) error {
	if !b.halosCurrent() {
		b.haloFailed = true
	}
	return binary.Write(w, binary.LittleEndian, b.f.Raw())
}

func (b *exchBody) counts() bodyCounts { return bodyCounts{} }

func (b *exchBody) verify() int64 {
	if b.haloFailed || !b.halosCurrent() {
		return b.ops
	}
	return 0
}

// halosCurrent checks every halo cell that has an owner against that
// owner's seeded interior value.
func (b *exchBody) halosCurrent() bool {
	d, w := b.d, b.width
	for k := 0; k < b.nz; k++ {
		for j := -w; j < b.ny+w; j++ {
			for i := -w; i < b.nx+w; i++ {
				if i >= 0 && i < b.nx && j >= 0 && j < b.ny {
					continue
				}
				gi, gj := b.i0+i, b.j0+j
				if gi < 0 || gi >= d.NXg {
					if !d.PeriodicX {
						continue
					}
					gi = (gi + d.NXg) % d.NXg
				}
				if gj < 0 || gj >= d.NYg {
					if !d.PeriodicY {
						continue
					}
					gj = (gj + d.NYg) % d.NYg
				}
				if b.f.At(i, j, k) != exchValue(b.seed, gi, gj, k) {
					return false
				}
			}
		}
	}
	return true
}

// ---- the seven workloads ----

const oceanDt = 405 // s of model time per ocean or coupled step

func simGFlops(w *window) float64 {
	return float64(w.body.flopsPS+w.body.flopsDS) / units.Time(w.simPs).Seconds() / 1e9
}

func simUsPerOp(w *window) float64 { return units.Time(w.simPs).Micros() / float64(w.ops) }

// workloads returns the seven workloads at the given scale.  Lengths
// are in ops; the timed region of a run is the same blockOps-sized
// block again and again until the requested seconds are spent.
func workloads(sc scale) []*workload {
	ocean16, ocean64 := bench.ScalingDecomp(), tile.Decomp{NXg: 128, NYg: 64, Px: 8, Py: 8, PeriodicX: true}
	serial := tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}
	exch := bench.ProductionDecomp()
	exchNZ := 15
	nodes64 := 64
	if sc.tiny {
		ocean16 = tile.Decomp{NXg: 32, NYg: 16, Px: 4, Py: 4, PeriodicX: true}
		ocean64 = ocean16 // the smoke test keeps the 64-node build out of go test
		nodes64 = 16
		serial = tile.Decomp{NXg: 32, NYg: 16, Px: 1, Py: 1, PeriodicX: true}
		exch = tile.Decomp{NXg: 32, NYg: 16, Px: 4, Py: 2, PeriodicX: true}
		exchNZ = 4
	}
	pick := func(full, tiny int) int {
		if sc.tiny {
			return tiny
		}
		return full
	}
	return []*workload{
		{
			name:  "coupled16",
			gated: true,
			why:   "Fig. 9 science run: tiny tiles, host time nearly all comm/startx/arctic/des; global sums ride Exchange",
			nodes: 16, ppn: 1, warmOps: pick(10, 1), blockOps: pick(10, 5),
			opSeconds: oceanDt, newBody: newCoupledBody,
		},
		{
			name:  "ocean16",
			gated: true,
			why:   "Fig. 10 machine, 8 SMPs x 2: only user of the mix-mode path and a busy worker pool; every layer has a share",
			nodes: 8, ppn: 2, warmOps: 2, blockOps: pick(4, 2),
			opSeconds: oceanDt, newBody: oceanBody(ocean16),
			paper: &paperRef{"Fig. 10 sustained rate on 16 processors", 0.8, "GFlop/s", simGFlops},
		},
		{
			name:  "ocean64",
			why:   "scale guard: 64 nodes, 3-level fat tree, deep scheduler backlog, multi-stage routes and link contention",
			nodes: nodes64, ppn: 1, warmOps: 1, blockOps: 1,
			opSeconds: oceanDt, newBody: oceanBody(ocean64),
		},
		{
			name:  "ocean_serial",
			gated: true,
			why:   "bypass for every fabric change (prediction: no move) and the target of gcm kernel work: no des/arctic/startx",
			nodes: 0, warmOps: pick(5, 1), blockOps: pick(20, 2),
			opSeconds: oceanDt, newBody: oceanBody(serial),
			paper: &paperRef{"Fig. 10 sustained rate on 1 processor", 0.054, "GFlop/s", simGFlops},
		},
		{
			name:  "gsum16",
			gated: true,
			why:   "latency primitive: PIO path, 64 small packets per sum, wake/handoff-bound small messages",
			nodes: 16, ppn: 1, warmOps: pick(500, 20), blockOps: pick(2000, 40),
			newBody: newGsumBody,
			paper:   &paperRef{"16-way global sum latency (sec. 4.2)", 18.2, "us", simUsPerOp},
		},
		{
			name:  "exch8",
			why:   "bandwidth primitive of Fig. 11: VI/DMA path, thousands of packets per halo update, link-occupancy-bound",
			nodes: 8, ppn: 1, warmOps: pick(25, 2), blockOps: pick(200, 4),
			newBody: exchBody3(exch, exchNZ, kernel.Halo),
			paper:   &paperRef{"texchxyz, ocean (Fig. 11)", 4573, "us", simUsPerOp},
		},
		{
			name:  "recover4",
			why:   "writes beside reads: reliable channel, leases, two-phase checkpoint store, rollback and replay after two node crashes",
			nodes: 4, ppn: 1, blockOps: 20,
			opSeconds: 1200, recover: true,
		},
	}
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// recoverConfig is recover4's model: a 64x64x4 gyre in 2x2 tiles.
func recoverConfig(in *inputs, sc scale) gcm.Config {
	n := 64
	if sc.tiny {
		n = 32
	}
	cfg := gcm.GyreConfig(n, n, 4, tile.Decomp{NXg: n, NYg: n, Px: 2, Py: 2})
	cfg.Init = perturbInit(cfg.Init, in.theta[0], in.nx, in.ny)
	return cfg
}

// generate makes every seeded input of w.
func generate(w *workload, seed uint64, sc scale) *inputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &inputs{exchSeed: rng.Uint64()}
	// A crash replays the steps since the last checkpoint, so moving it
	// across a 5-step interval changes the work of a 20-step round by up
	// to a quarter.  2 % keeps the seed's effect on the work near 2 %,
	// about what the issue's 10 % would be over its 120-step run.
	in.crashJitter = [2]float64{0.98 + 0.04*rng.Float64(), 0.98 + 0.04*rng.Float64()}
	switch w.name {
	case "coupled16":
		in.nx, in.ny = coupledDecomp.NXg, coupledDecomp.NYg
		in.theta[0] = genTheta(rng, in.nx*in.ny*4)
		in.theta[1] = genTheta(rng, in.nx*in.ny*5)
	case "ocean16", "ocean64", "ocean_serial":
		in.nx, in.ny = 128, 64
		if sc.tiny {
			in.nx, in.ny = 32, 16
		}
		in.theta[0] = genTheta(rng, in.nx*in.ny*15)
	case "recover4":
		in.nx, in.ny = 64, 64
		if sc.tiny {
			in.nx, in.ny = 32, 32
		}
		in.theta[0] = genTheta(rng, in.nx*in.ny*4)
	case "gsum16":
		const n = 1024
		ranks := w.nodes * w.ppn
		in.gsumVals = make([][]float64, ranks)
		in.gsumSum = make([]float64, n)
		in.gsumAbs = make([]float64, n)
		for r := range in.gsumVals {
			in.gsumVals[r] = make([]float64, n)
			for i := range in.gsumVals[r] {
				v := 2*rng.Float64() - 1
				in.gsumVals[r][i] = v
				in.gsumSum[i] += v
				in.gsumAbs[i] += math.Abs(v)
			}
		}
	}
	return in
}
