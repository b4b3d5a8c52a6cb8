// Deterministic offload of compute phases to host worker goroutines.
//
// The DES executes one activity at a time, so with the whole cluster
// modelled under one baton, sixteen simulated ranks' kernel sweeps run
// serially on one host core — exactly where the paper's dual-PII nodes
// did their work in parallel.  Pool restores that parallelism without
// touching the determinism contract:
//
//   - A compute phase must be *pure* (it reads and writes only its own
//     rank's model state, never engine or network state) and its
//     *modeled* duration must be known at submission time.
//   - Proc.Exec schedules exactly one wake-up event at now+d — the same
//     virtual footprint as Proc.Delay(d) — and ships the closure to a
//     pool worker.  The wake-up event performs a real wait for the
//     closure to finish before handing the baton back, so by the time
//     any other activity can observe the rank's state, the phase is
//     complete and a happens-before edge (task channel send, done
//     channel close, done receive) orders every memory access.
//   - Virtual event order is therefore a pure function of the schedule:
//     the digest, event count and clock are bit-identical for any
//     worker count, including none (Exec falls back to running inline).
//
// Real execution overlaps wherever the virtual schedule lets two ranks
// compute at the same virtual time; the event queue is only metering
// communication — the paper's division of labor.
package des

import (
	"sync"

	"hyades/internal/units"
)

// Pool is a bounded set of host worker goroutines executing offloaded
// compute phases.  Create one with NewPool and attach it to an engine
// with Engine.SetPool; Close it when the simulation is torn down.
type Pool struct {
	tasks     chan poolTask
	workers   int
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type poolTask struct {
	fn   func()
	done chan struct{}
}

// NewPool starts n worker goroutines (n < 1 is clamped to 1).  The
// workers never touch simulation state of their own accord: they only
// run closures handed to them by Proc.Exec, and the baton waits for
// completion before anything else can observe the results.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan poolTask), workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		// The one sanctioned raw goroutine of the simulation core
		// (processes are runtime coroutines and need none): pool workers
		// synchronize exclusively through the task and done channels,
		// and the baton blocks on done before the offloaded state is
		// visible to any simulation activity.
		//lint:allow nogoroutine worker-pool launch; offload discipline documented in the package comment
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.fn()
				t.done <- struct{}{}
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// submit hands fn to a worker; done receives one value on completion.
func (p *Pool) submit(fn func(), done chan struct{}) {
	p.tasks <- poolTask{fn: fn, done: done}
}

// Close stops the workers after the in-flight tasks finish.  Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

// SetPool attaches a worker pool to the engine; Proc.Exec offloads to
// it.  A nil pool (the default) makes Exec run inline.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// Pool returns the attached worker pool, if any.
func (e *Engine) Pool() *Pool { return e.pool }

// Exec runs fn — a pure compute phase whose modeled cost d is known up
// front — and suspends the process for d of virtual time.  With a pool
// attached the closure executes on a host worker while the simulation
// proceeds; without one it executes inline.  Both paths schedule
// exactly one event, so the virtual schedule (clock, event count,
// state digest) is independent of the worker count.
//
// fn must touch only state owned by this process's rank: no engine
// calls, no scheduling, no communication.  Charge hooks that would
// advance virtual time from inside fn must be suspended by the caller.
func (p *Proc) Exec(d units.Time, fn func()) {
	p.reraiseStop(nil)
	pool := p.eng.pool
	if pool == nil {
		fn()
		p.Delay(d)
		return
	}
	// One completion channel and one bound continuation per Proc,
	// created on first use and reused: Exec blocks until the phase
	// completes, so at most one offload is ever in flight per Proc and
	// the buffered slot can never carry a stale signal.
	if p.execDone == nil {
		p.execDone = make(chan struct{}, 1)
		p.execContFn = func() {
			<-p.execDone
			p.wake()
		}
	}
	// inExec defers Kill/Interrupt to the completion wake: the worker
	// may be touching this rank's arrays on another OS thread, so the
	// <-execDone synchronization must happen before any unwind.
	p.inExec = true
	pool.submit(fn, p.execDone)
	p.eng.Schedule(d, p.execContFn)
	p.block()
	p.inExec = false
	p.maybeInterrupt()
}
