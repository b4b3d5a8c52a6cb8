// Compute phases claimed at completion.
//
// A compute phase (Proc.Exec) is *pure* — it touches only its own
// rank's model state, never engine or network state — and its *modeled*
// duration is known at submission.  With a Pool attached to the engine:
//
//   - Exec keeps the closure on the process and schedules exactly one
//     completion event at now+d, the virtual footprint of Delay(d).
//     Nothing is handed over and nobody is woken, so the dispatcher
//     cannot block in submission.
//   - The completion event claims the phase: it runs the closure on the
//     dispatcher and then resumes the process.  The phase is complete
//     before any other activity can observe the rank's state.
//   - Virtual event order is a pure function of the schedule: digest,
//     event count and clock are bit-identical with a pool and without
//     one (Exec then runs the closure at submission).
//
// The pool has no host threads and no size: handing phases to worker
// threads lost to running them on the dispatcher on every workload
// measured (DESIGN.md, "Parallel execution model"; EXPERIMENTS.md E12).
// What the pool keeps is the seam: a pending phase runs at another host
// moment than inline, so the inline-versus-pool determinism matrices go
// on testing that phases are pure (a phase that blocks or schedules
// panics in either mode), and whoever measures threads winning has one
// place — the claim in complete — to let them in.
package des

import "hyades/internal/units"

// Pool makes Proc.Exec defer each compute phase to its completion
// event.  Create one with NewPool, attach it with Engine.SetPool and
// Close it when the simulation is torn down.
type Pool struct{}

// NewPool returns a pool.  n is ignored: the pool has no threads to
// size, and every phase is claimed by the dispatcher.
func NewPool(n int) *Pool { return &Pool{} }

// Close releases the pool, which today holds nothing.  Idempotent.
func (p *Pool) Close() {}

// SetPool attaches a pool to the engine; Proc.Exec then defers its
// closure to the completion event.  A nil pool (the default) makes Exec
// run inline.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// Exec runs fn — a pure compute phase whose modeled cost d is known up
// front — and suspends the process for d of virtual time.  With a pool
// attached fn runs when the completion event fires; without one it runs
// inline.  Both paths consume exactly one sequence number, so the
// virtual schedule (clock, event count, digest) does not depend on it.
//
// fn must touch only state owned by this process's rank: no engine
// calls, no scheduling, no communication.  A blocking call or a scheduled
// event from inside fn panics with a *ProcPanic naming the process.
func (p *Proc) Exec(d units.Time, fn func()) {
	p.mayBlock()
	if p.eng.pool == nil {
		p.runPhase(fn)
		p.Delay(d)
		return
	}
	if p.execContFn == nil {
		p.execContFn = p.complete
	}
	p.execFn = fn
	// inExec defers Kill/Interrupt to the completion wake: inline the
	// phase has already run by then, so here it runs before the unwind.
	p.inExec = true
	p.eng.Schedule(d, p.execContFn)
	p.block()
	p.inExec = false
	p.maybeInterrupt()
}

// complete is the completion event of a pending phase: claim it, run
// it on the dispatcher, resume the process.
func (p *Proc) complete() {
	fn := p.execFn
	p.execFn = nil
	p.runPhase(fn)
	p.wake()
}
