package gcm

import (
	"bytes"
	"fmt"
	"io"

	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/units"
)

// The rank runner: every parallel job — single-component or coupled,
// on Hyades or a modelled commodity network, fault-free or losing nodes
// mid-step — runs through the one loop in run.  DESIGN.md ("Runner")
// has the contract.

// job is what the loop drives: the methods *Model and *Coupled share.
type job interface {
	Run(n int)
	Checkpoint(w io.Writer) error
	Restore(r io.Reader) error
	checkpointLen() int // the length of the stream Checkpoint writes
	tile() *Model       // step count, flop counters, solver statistics
}

func (m *Model) tile() *Model   { return m }
func (c *Coupled) tile() *Model { return c.M }

// buildFn constructs the calling rank's job over its endpoint.
type buildFn func(rank int, ep comm.Endpoint) (job, error)

// ledger is what one rank's attempts leave on the launcher frame.
type ledger struct {
	err     error      // the job could not be built
	t0, t1  units.Time // exits of the first warm-up barrier and of the final barrier
	started bool       // t0 is set
	ps, ds  int64      // timed-region flops executed, replays included
	lost    int64      // flops of abandoned attempts
	timed   comm.Stats // timed-region endpoint accounting
}

// run executes the job that build constructs on n ranks — warmup
// untimed steps, then steps timed ones — and is the only rank body loop
// in the package.  launch must start one simulated process per rank
// running body and drain the simulation; after, if non-nil, runs on
// each rank once its job is complete.
//
// Each rank executes attempts, one per recovery generation: rec's
// rendezvous, a fresh job, a restore of the committed checkpoint if
// there is one, then stepping with a coordinated checkpoint every
// `every` steps (0: none, so a crash fails loudly at restore time).  A
// node crash unwinds every surviving rank with a *des.Interrupt and the
// rank retries in the next generation.  rec == nil is the zero-crash
// case of the same loop: one attempt, no rendezvous, no store, no
// checkpoint charge.
//
// Totals cover the timed region only — from the warm-up barrier (or the
// restore, for an attempt that restarts past it) to the final barrier
// or the unwind — over every attempt of every incarnation: work a
// rollback later repeated counts (and again as Recovery.LostFlops),
// model construction, warm-up and restore traffic never do.  Elapsed
// spans rank 0's first warm-up barrier to its completion, recovery
// stalls and replays included.
func run(n int, launch func(body func(ep comm.Endpoint)) error, rec *comm.Recovery, build buildFn, warmup, steps, every int, after func(job)) (*Result, error) {
	total := warmup + steps
	// The rank bodies write only rank-indexed slots, so the result cannot
	// depend on how the engine interleaves the rank coroutines.  The slots
	// live on this frame and so survive the death of any incarnation.
	res := &Result{Models: make([]*Model, n), Steps: steps}
	ledgers := make([]ledger, n)

	// attempt runs one generation of one rank.  It reports whether the
	// rank is finished (job complete or a fatal error already raised);
	// false means a crash interrupt unwound the attempt and the rank must
	// re-enter the rendezvous.
	attempt := func(rank int, ep comm.Endpoint) (finished bool) {
		led := ledgers[rank]
		var j job
		var base comm.Stats // endpoint accounting and flop counters
		var ps0, ds0 int64  // at the timed region's opening
		inTimed := false
		shut := func(flops bool) {
			if !inTimed {
				return
			}
			inTimed = false
			s := ep.Stats()
			led.timed.ComputeTime += s.ComputeTime - base.ComputeTime
			led.timed.ExchangeTime += s.ExchangeTime - base.ExchangeTime
			led.timed.GsumTime += s.GsumTime - base.GsumTime
			if flops {
				led.ps += j.tile().C.PS - ps0
				led.ds += j.tile().C.DS - ds0
			}
		}
		defer func(rank int) {
			// An unwound attempt banks its timed-region clock.  An
			// interrupted survivor also banks its flops — all of them
			// work the rollback will redo — and retries; a killed
			// incarnation (its node crashed) just dies.
			r := recover()
			_, interrupted := r.(*des.Interrupt)
			if r != nil {
				shut(interrupted)
				if interrupted && j != nil {
					led.lost += j.tile().C.PS + j.tile().C.DS
				}
			}
			ledgers[rank] = led
			if r != nil && !interrupted {
				panic(r)
			}
		}(rank)
		if rec != nil && rec.Enter(rank) {
			return true
		}
		built, err := build(rank, ep)
		if err != nil {
			led.err = err
			return true
		}
		j = built
		m := j.tile()
		res.Models[rank] = m
		if rec != nil {
			if step, blob, ok := rec.Checkpoint(rank); ok {
				if err := restoreFrom(j, step, blob); err != nil {
					rec.Fail(fmt.Errorf("gcm: rank %d restore from step-%d checkpoint: %w", rank, step, err))
					return true
				}
				// Reading the checkpoint back through memory costs what the
				// write did.
				ep.Busy(rec.CopyCost(len(blob)))
				if step >= warmup {
					inTimed, base, ps0, ds0 = true, *ep.Stats(), m.C.PS, m.C.DS
				}
			} else if rec.Restarts() > 0 {
				rec.Fail(fmt.Errorf("gcm: node crash #%d with no surviving checkpoint: nothing to restore; run with a checkpoint interval (-checkpoint-every) to make crashes survivable", rec.Restarts()))
				return true
			}
		}
		for {
			if !inTimed && m.Steps >= warmup {
				ep.Barrier()
				if !led.started {
					led.started, led.t0 = true, ep.Now()
				}
				inTimed, base, ps0, ds0 = true, *ep.Stats(), m.C.PS, m.C.DS
			}
			if m.Steps >= total {
				break
			}
			j.Run(1)
			if rec != nil && every > 0 && m.Steps%every == 0 && m.Steps < total {
				// The buffer is the committed blob: sized once, exactly, it
				// carries no slack into the store.
				buf := bytes.NewBuffer(make([]byte, 0, j.checkpointLen()))
				if err := j.Checkpoint(buf); err != nil {
					rec.Fail(fmt.Errorf("gcm: rank %d checkpoint at step %d: %w", rank, m.Steps, err))
					return true
				}
				// Serializing the state is a memory-bandwidth copy on the
				// rank's processor, charged in virtual time so the
				// recovery-overhead rows price checkpointing honestly.
				ep.Busy(rec.CopyCost(buf.Len()))
				rec.SaveCheckpoint(rank, m.Steps, buf.Bytes())
			}
		}
		ep.Barrier()
		led.t1 = ep.Now()
		shut(true)
		if rec != nil {
			rec.Done(rank)
		}
		if after != nil {
			after(j)
		}
		return true
	}

	err := launch(func(ep comm.Endpoint) {
		for !attempt(ep.Rank(), ep) {
		}
	})
	if err != nil {
		return nil, err
	}
	var iters, solves int64
	for r, led := range ledgers {
		if led.err != nil {
			return nil, led.err
		}
		res.TotalPS += led.ps
		res.TotalDS += led.ds
		res.ComputeTime += led.timed.ComputeTime
		res.ExchangeTime += led.timed.ExchangeTime
		res.GsumTime += led.timed.GsumTime
		res.Recovery.LostFlops += led.lost
		iters += res.Models[r].Solver.TotalIters
		solves += res.Models[r].Solver.Solves
	}
	res.Elapsed = ledgers[0].t1 - ledgers[0].t0
	if solves > 0 {
		res.MeanNi = float64(iters) / float64(solves)
	}
	if rec != nil {
		res.Recovery.Enabled, res.Recovery.RecoveryStats = true, rec.Stats()
	}
	return res, nil
}

// restoreFrom loads a committed blob into j.  The stream must be
// consumed exactly, and be at the step the store committed it under.
func restoreFrom(j job, step int, blob []byte) error {
	if err := RestoreWhole(j, bytes.NewReader(blob)); err != nil {
		return err
	}
	if at := j.tile().Steps; at != step {
		return fmt.Errorf("gcm: checkpoint header: stream is at step %d", at)
	}
	return nil
}
