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
//     event count and clock are bit-identical with a pool of any size
//     and with none (Exec then runs the closure at submission).
//
// The pool has no host threads: handing phases to worker threads lost
// to running them on the dispatcher on every workload measured, the
// 128x64 coupled step included (DESIGN.md, "Parallel execution model").
// What the pool keeps is the seam: a pending phase runs at another host
// moment than inline, so the worker-count determinism matrices go on
// certifying that rank bodies are pure, and whoever measures threads
// winning has one place — the claim in complete — to let them in.
package des

import "hyades/internal/units"

// Pool makes Proc.Exec defer each compute phase to its completion
// event.  Create one with NewPool, attach it with Engine.SetPool and
// Close it when the simulation is torn down.
type Pool struct{ workers int }

// NewPool returns a pool of nominal size n (n < 1 is clamped to 1).
// The size is reported by Workers and otherwise unused: every phase is
// claimed by the dispatcher.
func NewPool(n int) *Pool { return &Pool{workers: max(n, 1)} }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool, which today holds nothing.  Idempotent.
func (p *Pool) Close() {}

// SetPool attaches a pool to the engine; Proc.Exec then defers its
// closure to the completion event.  A nil pool (the default) makes Exec
// run inline.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// Pool returns the attached pool, if any.
func (e *Engine) Pool() *Pool { return e.pool }

// Exec runs fn — a pure compute phase whose modeled cost d is known up
// front — and suspends the process for d of virtual time.  With a pool
// attached fn runs when the completion event fires; without one it runs
// inline.  Both paths consume exactly one sequence number, so the
// virtual schedule (clock, event count, digest) does not depend on it.
//
// fn must touch only state owned by this process's rank: no engine
// calls, no scheduling, no communication.  Charge hooks that would
// advance virtual time from inside fn must be suspended by the caller.
func (p *Proc) Exec(d units.Time, fn func()) {
	p.reraiseStop(nil)
	if p.eng.pool == nil {
		fn()
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
	fn()
	p.wake()
}
