// Deterministic offload of compute phases to host worker goroutines.
//
// The DES executes one activity at a time, so with the whole cluster
// under one baton, sixteen simulated ranks' kernel sweeps run serially
// on one host core — where the paper's dual-PII nodes worked in
// parallel.  Pool restores that parallelism inside the determinism
// contract (DESIGN.md, "Parallel execution model"):
//
//   - A compute phase must be *pure* (it touches only its own rank's
//     model state, never engine or network state) and its *modeled*
//     duration must be known at submission time.
//   - Proc.Exec schedules exactly one completion event at now+d — the
//     virtual footprint of Proc.Delay(d) — and leaves the closure in the
//     pool's pending set: a mutex and an append.  Nobody is woken, so
//     the dispatcher cannot block in submission.
//   - The completion event claims the phase: still pending, the
//     dispatcher runs it there and then; taken by a worker, it waits for
//     that worker.  Either way the phase is complete — ordered by the
//     pool mutex and the done channel — before any other activity can
//     observe the rank's state.
//   - Workers stay parked until the dispatcher has just run a phase
//     whose measured host time exceeded recruitAfter while more are
//     pending.  They take the newest pending phases (completion events
//     furthest ahead) and park again after a short one, or when none
//     is left.
//   - Virtual event order is a pure function of the schedule: digest,
//     event count and clock are bit-identical for any worker count,
//     none included.  Host time decides only which thread runs a phase.
package des

import (
	"slices"
	"sync"
	"time"

	"hyades/internal/units"
)

// recruitAfter is the host time a phase the dispatcher ran must have
// taken before parked workers are woken for those still pending, and a
// phase a worker ran for it to stay awake.  A wake-up and hand-back
// measured ≈ 5 µs on the CI host (what the old hand-over of every phase
// added: 5–6 ms over a coupled step's 992); the pending phases are only
// presumed alike, so the bar is a multiple of that.
const recruitAfter = 20 * time.Microsecond

// Pool is a bounded set of host worker goroutines executing offloaded
// compute phases.  Create one with NewPool and attach it to an engine
// with Engine.SetPool; Close it when the simulation is torn down.
type Pool struct {
	workers int
	wg      sync.WaitGroup
	mu      sync.Mutex
	wake    *sync.Cond // parked workers wait here
	pending []*phase   // submitted and unclaimed, oldest first
	parked  int
	closed  bool
}

// phase is a Proc's offloaded compute phase (at most one outstanding,
// so one object serves all its Execs).  done carries the signal of a
// worker that claimed it; buffered, so the worker never waits.
type phase struct {
	fn   func()
	done chan struct{}
}

// NewPool starts n worker goroutines (n < 1 is clamped to 1), parked.
// They run only closures left for them by Proc.Exec, and the baton
// waits for completion before anything else can observe the results.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n}
	p.wake = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		// The one sanctioned raw goroutine of the simulation core: workers
		// synchronize only through the pool mutex and done channels, and
		// the baton claims or awaits each phase before its state shows.
		//lint:allow nogoroutine worker-pool launch; offload discipline documented in the package comment
		go p.work()
	}
	return p
}

// work is a worker's life: park until recruited, run pending phases
// newest first for as long as they keep measuring long, park again.
func (p *Pool) work() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	stay := false // the last phase run here was worth a worker
	for !p.closed {
		n := len(p.pending)
		if n == 0 || !stay {
			p.parked++
			p.wake.Wait()
			p.parked--
			stay = true
			continue
		}
		ph := p.pending[n-1]
		p.pending[n-1] = nil
		p.pending = p.pending[:n-1]
		p.mu.Unlock()
		start := hostNow()
		ph.fn()
		stay = hostNow().Sub(start) >= recruitAfter
		ph.done <- struct{}{}
		p.mu.Lock()
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// complete returns once ph has run: on the calling (dispatcher)
// goroutine if it was still pending, else on the worker that took it.
// A phase run here also measures what the pending ones may cost.
func (p *Pool) complete(ph *phase) {
	p.mu.Lock()
	i := slices.Index(p.pending, ph)
	if i < 0 {
		p.mu.Unlock()
		<-ph.done
		return
	}
	p.pending = slices.Delete(p.pending, i, i+1)
	recruitable := p.parked > 0 && len(p.pending) > 0
	p.mu.Unlock()
	if !recruitable {
		ph.fn()
		return
	}
	start := hostNow()
	ph.fn()
	if hostNow().Sub(start) < recruitAfter {
		return
	}
	p.mu.Lock()
	for n := min(p.parked, len(p.pending)); n > 0; n-- {
		p.wake.Signal()
	}
	p.mu.Unlock()
}

// hostNow is the simulation core's only wall-clock read.
//
//lint:allow detsource host time steers only which host thread runs a pure phase, never the virtual schedule
func hostNow() time.Time { return time.Now() }

// Close stops the workers once the phases they are running finish;
// pending ones stay claimable by their completion events.  Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wake.Broadcast()
	p.wg.Wait()
}

// SetPool attaches a worker pool to the engine; Proc.Exec offloads to
// it.  A nil pool (the default) makes Exec run inline.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// Pool returns the attached worker pool, if any.
func (e *Engine) Pool() *Pool { return e.pool }

// Exec runs fn — a pure compute phase whose modeled cost d is known up
// front — and suspends the process for d of virtual time.  With a pool
// attached the closure has run by the time the completion event has
// fired, on the dispatcher or on a host worker; without one it runs
// inline.  Both paths schedule exactly one event, so the virtual
// schedule (clock, event count, digest) is independent of the workers.
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
	if p.exec.done == nil {
		p.exec.done = make(chan struct{}, 1)
		p.execContFn = func() {
			p.eng.pool.complete(&p.exec)
			p.wake()
		}
	}
	p.exec.fn = fn
	// inExec defers Kill/Interrupt to the completion wake: a worker may
	// be in this rank's arrays, so complete must return before any unwind.
	p.inExec = true
	pool.mu.Lock() // submission: left for whoever claims it first, nobody woken
	pool.pending = append(pool.pending, &p.exec)
	pool.mu.Unlock()
	p.eng.Schedule(d, p.execContFn)
	p.block()
	p.inExec = false
	p.maybeInterrupt()
}
