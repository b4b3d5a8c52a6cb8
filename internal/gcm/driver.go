package gcm

import (
	"fmt"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/gcm/solver"
	"hyades/internal/netmodel"
	"hyades/internal/plates"
	"hyades/internal/units"
)

// Result summarizes a timed parallel run.
type Result struct {
	Models  []*Model   // every rank's tile
	Coupled []*Coupled // every rank's component (RunCoupled only)
	Elapsed units.Time // virtual wall-clock of the timed steps
	Steps   int

	TotalPS, TotalDS int64 // timed-region flops across all workers

	// Aggregated endpoint accounting over the timed region (see run).
	ComputeTime, ExchangeTime, GsumTime units.Time // summed over workers

	MeanNi float64 // mean CG iterations per step

	// Fault/recovery accounting (Hyades runs only; whole run, not just
	// the timed region — retransmission counters are not resettable).
	Fault comm.FaultStats
	Net   arctic.Stats

	// Recovery reports availability behaviour when the run used the
	// crash-recovery controller (node faults, a checkpoint interval or
	// a plate directory).
	Recovery RecoveryResult

	// Engine observables of the whole simulation (Hyades runs only):
	// determinism tests compare them bit for bit across worker counts.
	Events    uint64
	FinalTime units.Time
	Counters  des.Counters // what the engine did about those events
}

// TotalFlops returns all floating-point work in the timed region.
func (r *Result) TotalFlops() int64 { return r.TotalPS + r.TotalDS }

// SustainedMFlops returns the aggregate sustained floating-point rate
// (the Fig. 10 metric).
func (r *Result) SustainedMFlops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalFlops()) / r.Elapsed.Seconds() / 1e6
}

// PerStep returns the mean virtual time per model step.
func (r *Result) PerStep() units.Time {
	if r.Steps == 0 {
		return 0
	}
	return r.Elapsed / units.Time(r.Steps)
}

// RecoveryResult summarizes the availability behaviour of a run that
// used the crash-recovery controller.
type RecoveryResult struct {
	comm.RecoveryStats
	Enabled   bool
	LostFlops int64 // flops of abandoned attempts (work redone)
}

// ParallelOpts tunes a Hyades cluster run beyond the machine shape.
type ParallelOpts struct {
	// Fault selects the deterministic fault plan.  Enabling any fault
	// also switches on the NIUs' reliable channel (see cluster.Config).
	Fault fault.Config

	// Workers chooses when the ranks' compute phases run on the host:
	// negative inline at submission, 0 (GOMAXPROCS) or n under a pool
	// of that nominal size, at completion.  Every value produces the
	// identical virtual schedule (see cluster.Config).
	Workers int

	// CheckpointEvery saves a coordinated checkpoint every so many
	// model steps (0 disables).  With node faults enabled it bounds
	// the work a crash can destroy; without them it still exercises
	// the checkpoint machinery (the state digest is unaffected).
	CheckpointEvery int

	// MaxRestarts overrides the recovery controller's crash budget
	// when positive.
	MaxRestarts int
}

// RunParallel executes cfg for the given number of timed steps (plus
// warm-up steps excluded from the timing) on a simulated Hyades
// cluster with the given SMP count and processors per SMP.  The
// decomposition must produce exactly nodes*ppn tiles.
func RunParallel(nodes, ppn int, cfg Config, warmup, steps int) (*Result, error) {
	return RunParallelOpts(nodes, ppn, cfg, warmup, steps, ParallelOpts{})
}

// RunParallelOpts is RunParallel with fault injection, worker-pool and
// checkpoint control.  The returned Result carries the fault/recovery
// counters.
func RunParallelOpts(nodes, ppn int, cfg Config, warmup, steps int, opts ParallelOpts) (*Result, error) {
	if cfg.Decomp.Tiles() != nodes*ppn {
		return nil, fmt.Errorf("gcm: %d tiles for %d workers", cfg.Decomp.Tiles(), nodes*ppn)
	}
	build := func(rank int, ep comm.Endpoint) (job, error) { return New(cfg, ep) }
	return runHyades(nodes, ppn, opts, nil, build, warmup, steps, nil)
}

// RunCoupled executes the coupled ocean-atmosphere job cfg for steps
// steps on a Hyades cluster of nodes*ppn workers, the atmosphere on the
// first half of the ranks and the ocean on the second.  With dir set,
// every committed checkpoint is also written there as plates and, if
// dir.Load found a set, the run resumes from it.  after, if
// non-nil, runs on every rank's simulated process once the job is
// complete — the place for collective diagnostics such as gathers.
func RunCoupled(nodes, ppn int, cfg CoupledConfig, steps int, opts ParallelOpts, dir *plates.Dir, after func(c *Coupled)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coupled := make([]*Coupled, nodes*ppn)
	build := func(rank int, ep comm.Endpoint) (job, error) {
		cp, err := NewCoupled(cfg.withOwnPhysics(), ep)
		if err != nil {
			return nil, err
		}
		coupled[rank] = cp
		return cp, nil
	}
	var hook func(j job)
	if after != nil {
		hook = func(j job) { after(j.(*Coupled)) }
	}
	res, err := runHyades(nodes, ppn, opts, dir, build, 0, steps, hook)
	if err != nil {
		return nil, err
	}
	res.Coupled = coupled
	return res, nil
}

// runHyades assembles the simulated Hyades machine for a job and runs
// it.  The crash-recovery controller is attached only when something
// needs it — a fault plan that crashes nodes, a checkpoint interval or
// a plate directory — so a plain run pays for none of it.
func runHyades(nodes, ppn int, opts ParallelOpts, dir *plates.Dir, build buildFn, warmup, steps int, after func(job)) (*Result, error) {
	ccfg := cluster.DefaultConfig(nodes, ppn)
	ccfg.Fault = opts.Fault
	ccfg.Workers = opts.Workers
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		return nil, err
	}
	rec := lib.Recovery(opts.CheckpointEvery > 0 || dir != nil)
	if rec != nil && opts.MaxRestarts > 0 {
		rec.MaxRestarts = opts.MaxRestarts
	}
	if dir != nil {
		rec.Persist(dir)
	}
	launch := func(body func(ep comm.Endpoint)) error {
		cl.Start(func(w *cluster.Worker) { body(lib.Bind(w)) })
		return cl.Run()
	}
	res, err := run(cl.Processors(), launch, rec, build, warmup, steps, opts.CheckpointEvery, after)
	if err != nil {
		return nil, err
	}
	res.Fault = lib.FaultStats()
	res.Net = cl.Fabric.Stats()
	res.Events = cl.Eng.Events()
	res.Counters = cl.Eng.Counters()
	res.FinalTime = cl.Eng.Now()
	return res, nil
}

// RunParallelNet executes cfg over a modelled commodity interconnect
// (Fast Ethernet, Gigabit Ethernet, Myrinet/HPVM) with one worker per
// node — the "portable MPI" configurations of Fig. 12.
func RunParallelNet(prm netmodel.Params, cfg Config, warmup, steps int) (*Result, error) {
	nc := netmodel.New(cfg.Decomp.Tiles(), prm)
	defer nc.Close()
	launch := func(body func(ep comm.Endpoint)) error {
		nc.Start(func(ep *netmodel.Endpoint) { body(ep) })
		return nc.Run()
	}
	build := func(rank int, ep comm.Endpoint) (job, error) { return New(cfg, ep) }
	return run(nc.N, launch, nil, build, warmup, steps, 0, nil)
}

// RunSerial executes cfg on the serial endpoint (single tile) and
// returns the model plus the charged single-processor time.
func RunSerial(cfg Config, steps int) (*Model, units.Time, error) {
	return RunSerialWithPrecond(cfg, steps, solver.PrecondSSOR)
}

// RunSerialWithPrecond is RunSerial with an explicit solver
// preconditioner — used by the preconditioner ablation benchmark.
func RunSerialWithPrecond(cfg Config, steps int, pre solver.Precond) (*Model, units.Time, error) {
	if cfg.Decomp.Tiles() != 1 {
		return nil, 0, fmt.Errorf("gcm: serial run needs a 1x1 decomposition")
	}
	ep := &comm.Serial{}
	m, err := New(cfg, ep)
	if err != nil {
		return nil, 0, err
	}
	m.Solver.Pre = pre
	start := ep.Now()
	m.Run(steps)
	return m, ep.Now() - start, nil
}
