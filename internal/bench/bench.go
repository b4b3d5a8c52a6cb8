// Package bench provides the stand-alone communication-primitive
// benchmarks of the paper's §4/§5: global-sum latency and the 2-D/3-D
// halo-exchange times (tgsum, texchxy, texchxyz of Fig. 11), runnable
// over any machine that provides comm.Endpoint workers — the simulated
// Hyades cluster or the modelled Ethernet/Myrinet interconnects of
// Fig. 12.
//
// The exchange benchmarks drive the *same* tile/halo code as the GCM,
// so the measured values are exactly what the model experiences.
package bench

import (
	"fmt"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/tile"
	"hyades/internal/netmodel"
	"hyades/internal/units"
)

// Runner starts n workers on some machine and drains the simulation.
type Runner interface {
	Name() string
	Run(workers int, body func(ep comm.Endpoint)) error
}

// HyadesRunner runs workers on the simulated Hyades cluster.
type HyadesRunner struct {
	PPN int // processors per SMP (1 or 2)
}

// Name implements Runner.
func (r HyadesRunner) Name() string { return "Arctic" }

// Run implements Runner.
func (r HyadesRunner) Run(workers int, body func(ep comm.Endpoint)) error {
	ppn := r.PPN
	if ppn == 0 {
		ppn = 1
	}
	if workers%ppn != 0 {
		return fmt.Errorf("bench: %d workers not divisible by %d per node", workers, ppn)
	}
	cl, err := cluster.New(cluster.DefaultConfig(workers/ppn, ppn))
	if err != nil {
		return err
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		return err
	}
	cl.Start(func(w *cluster.Worker) { body(lib.Bind(w)) })
	return cl.Run()
}

// NetRunner runs workers on a modelled interconnect.
type NetRunner struct {
	Prm netmodel.Params
}

// Name implements Runner.
func (r NetRunner) Name() string { return r.Prm.Name }

// Run implements Runner.
func (r NetRunner) Run(workers int, body func(ep comm.Endpoint)) error {
	c := netmodel.New(workers, r.Prm)
	defer c.Close()
	c.Start(func(ep *netmodel.Endpoint) { body(ep) })
	return c.Run()
}

// Gsum measures the steady-state global-sum latency over the given
// worker count.
func Gsum(r Runner, workers, reps int) (units.Time, error) {
	var start, end units.Time
	err := r.Run(workers, func(ep comm.Endpoint) {
		ep.GlobalSum(1) // warm-up alignment
		if ep.Rank() == 0 {
			start = ep.Now()
		}
		for i := 0; i < reps; i++ {
			ep.GlobalSum(float64(i))
		}
		if ep.Rank() == 0 {
			end = ep.Now()
		}
	})
	if err != nil {
		return 0, err
	}
	return (end - start) / units.Time(reps), nil
}

// Exchange2 measures the full 2-D halo update of one field (texchxy):
// the time for every tile to bring a width-1 halo current, averaged
// over reps.
func Exchange2(r Runner, d tile.Decomp, reps int) (units.Time, error) {
	nx, ny := d.TileSize()
	return haloLoop(r, d, reps, func(h *tile.Halo) func() {
		f := field.NewF2(nx, ny, 1)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				f.Set(i, j, float64(i*j))
			}
		}
		return func() { h.Update2(f, 1) }
	})
}

// Exchange3 measures the full 3-D halo update of one field with the
// GCM's overcomputation width (texchxyz).
func Exchange3(r Runner, d tile.Decomp, nz, width, reps int) (units.Time, error) {
	nx, ny := d.TileSize()
	return haloLoop(r, d, reps, func(h *tile.Halo) func() {
		f := field.NewF3(nx, ny, nz, width)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					f.Set(i, j, k, float64(i+j+k))
				}
			}
		}
		return func() { h.Update3(f, width) }
	})
}

// haloLoop is the timed loop of Exchange2 and Exchange3 on every tile
// of d: prepare fills the tile's field and returns its halo update,
// which runs once to warm up and then reps times between two barriers;
// rank 0 stamps the time after each barrier.
func haloLoop(r Runner, d tile.Decomp, reps int, prepare func(h *tile.Halo) func()) (units.Time, error) {
	var start, end units.Time
	err := r.Run(d.Tiles(), func(ep comm.Endpoint) {
		h, err := tile.NewHalo(ep, d)
		if err != nil {
			panic(err)
		}
		update := prepare(h)
		update() // warm-up
		ep.Barrier()
		if ep.Rank() == 0 {
			start = ep.Now()
		}
		for i := 0; i < reps; i++ {
			update()
		}
		ep.Barrier()
		if ep.Rank() == 0 {
			end = ep.Now()
		}
	})
	if err != nil {
		return 0, err
	}
	return (end - start) / units.Time(reps), nil
}

// Primitives bundles the three Fig. 11/12 communication parameters.
type Primitives struct {
	Machine  string
	Workers  int
	Tgsum    units.Time
	Texchxy  units.Time
	Texchxyz units.Time // at the atmosphere's nz
	Ocean3D  units.Time // at the ocean's nz
}

// ProductionDecomp is the Fig. 11 benchmark decomposition: the
// 2.8125-degree 128x64 grid carved into eight 32x32 tiles, one per
// SMP, exactly as the paper's coupled production runs (nxy = 1024).
func ProductionDecomp() tile.Decomp {
	return tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 2, PeriodicX: true}
}

// ScalingDecomp spreads the same grid over sixteen workers (32x16
// tiles), used by the Fig. 10 sustained-performance runs.
func ScalingDecomp() tile.Decomp {
	return tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true}
}

// MeasureConfig measures the primitives for an arbitrary decomposition
// and level counts, with the global sum spanning gsumWorkers
// processors.
func MeasureConfig(gsumRunner, exchRunner Runner, d tile.Decomp, gsumWorkers, nzAtm, nzOcean int) (Primitives, error) {
	p := Primitives{Machine: gsumRunner.Name(), Workers: gsumWorkers}
	var err error
	if p.Tgsum, err = Gsum(gsumRunner, gsumWorkers, 8); err != nil {
		return p, err
	}
	if p.Texchxy, err = Exchange2(exchRunner, d, 4); err != nil {
		return p, err
	}
	if p.Texchxyz, err = Exchange3(exchRunner, d, nzAtm, 3, 2); err != nil {
		return p, err
	}
	if p.Ocean3D, err = Exchange3(exchRunner, d, nzOcean, 3, 2); err != nil {
		return p, err
	}
	return p, nil
}

// MeasureHyades runs the Fig. 11 benchmarks on the simulated Hyades
// machine in its production configuration.  The global sum spans all
// sixteen processors (the paper's 2x8-way value); the exchanges run
// over the eight 32x32 tiles of ProductionDecomp with one
// communicating master per SMP.
func MeasureHyades() (Primitives, error) {
	return MeasureConfig(HyadesRunner{PPN: 2}, HyadesRunner{PPN: 1}, ProductionDecomp(), 16, 5, 15)
}

// MeasureNet runs the Fig. 12 benchmarks, the same as MeasureHyades,
// on a modelled interconnect.
func MeasureNet(prm netmodel.Params) (Primitives, error) {
	r := NetRunner{Prm: prm}
	return MeasureConfig(r, r, ProductionDecomp(), 16, 5, 15)
}

// TransferBandwidth measures the perceived one-directional transfer
// bandwidth for a block size (the Fig. 7 metric): an exchange is two
// symmetric sequential transfers, so the per-direction time is half
// the exchange time.
func TransferBandwidth(r Runner, size, reps int) (units.Bandwidth, error) {
	var start, end units.Time
	err := r.Run(2, func(ep comm.Endpoint) {
		peer := 1 - ep.Rank()
		buf := make([]byte, size)
		layout := comm.Contiguous(size, true)
		ep.Exchange(peer, buf, layout) // warm-up
		if ep.Rank() == 0 {
			start = ep.Now()
		}
		for i := 0; i < reps; i++ {
			ep.Exchange(peer, buf, layout)
		}
		if ep.Rank() == 0 {
			end = ep.Now()
		}
	})
	if err != nil {
		return 0, err
	}
	perTransfer := (end - start) / units.Time(2*reps)
	return units.Rate(size, perTransfer), nil
}
