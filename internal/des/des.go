// Package des is a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The Hyades reproduction models the whole cluster — processors, PCI
// buses, the StarT-X NIUs and the Arctic switch fabric — in virtual time.
// The kernel executes exactly one activity at a time (either an event
// closure or a resumed process), so a simulation run is a deterministic
// function of its inputs: every timing figure in the paper can be
// regenerated bit-for-bit.
//
// Two styles of activity coexist:
//
//   - Event closures, scheduled with Engine.Schedule, model purely
//     reactive hardware (link pumps, DMA engines, router stages).
//   - Processes, created with Engine.Spawn, model threads of control with
//     their own program counter (application code on a simulated
//     processor).  A process blocks by calling Delay, Mailbox.Recv,
//     Semaphore.Acquire or Signal.Wait; control transfers back to the
//     kernel until the wake-up event fires.
//
// Queue, the one FIFO ring, and Timer, the one cancellable expiry (bound
// once, re-armed without allocating), carry the modelled hardware's
// queues and timeouts.  The processes parked on a Mailbox, Semaphore or
// Signal wait in a Queue too, in the order they parked.
//
// Processes are runtime coroutines (iter.Pull).  Every event closure runs
// on one dispatcher — the goroutine that called Run, RunUntil or Step —
// and an event that wakes a process switches straight into it; the
// process switches straight back when it next blocks or returns.  A
// process switch is therefore two coroutine switches, with no pass
// through the Go scheduler and no second OS thread woken, and exactly
// one activity holds the "baton" at a time, so process code may freely
// touch shared simulation state without locking.
//
// A process that knows what it will do between blocks can hand that
// work to the dispatcher instead: Proc.Await takes a step function, and
// the wakes of its blocks run the step on the dispatcher rather than
// switching into the process, until the step reports done.  A step is
// written with the step forms of the blocking calls — StepDelay,
// Semaphore.AcquireStep, Signal.WaitStep and Mailbox.RecvStep, which
// begin a park that ParkEnd ends — and performs exactly the engine
// operations the process would have, in the same order, so the
// schedule cannot tell the two apart.  The blocking calls themselves
// are loops over their step forms.
//
// Activities run in strict (at, seq) order; seq is drawn by every queued
// event, inline Delay advance and reserved Slot — a position need not be
// an event (a Slot queues its event only if something needs it).
package des

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"strings"

	"hyades/internal/units"
)

// event is a scheduled activity.  The queue owns the bookkeeping
// fields: idx is the event's position inside an unsorted ladder region,
// where it makes cancellation an O(1) swap-remove; rng and bkt locate
// that region; dead marks a tombstoned cancellation awaiting drain.
// Cancelled timers must not advance the virtual clock to their expiry,
// so a dead event is skipped — never executed — when popped.
type event struct {
	at   units.Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	fn   func()
	idx  int
	bkt  int32
	rng  int8
	dead bool
}

// Engine is the simulation kernel.  Create one with NewEngine; it is not
// safe for concurrent use from multiple OS-level goroutines other than
// through the coroutine discipline described in the package comment.
type Engine struct {
	now   units.Time
	sched ladderQueue
	seq   uint64
	// cur is the seq of the activity holding the baton — the event being
	// dispatched, or the number an inline Delay advance just consumed —
	// so (now, cur) is the position a Slot compares its own against.
	cur uint64
	// horizon is the latest timestamp of any reserved Slot: where the
	// clock ends once the queue has drained, as if its event had fired.
	horizon units.Time
	ctr     Counters
	// procs holds the live processes in spawn order.  A slice, not a
	// map: Blocked and Close iterate it, and map iteration order is
	// randomized — a determinism hazard the maprange analyzer bans
	// from the event path.
	procs   []*Proc
	stopped bool

	// pool, when set, defers compute phases (Proc.Exec) to their
	// completion events.  Nil means Exec runs inline.
	pool *Pool
	// phase is the process whose Exec phase is running, nil outside one
	// (Proc.runPhase).
	phase *Proc

	// watchdog bounds any single blocking wait; see SetWatchdog.
	watchdog units.Time
	// limit is the active RunUntil bound, consulted by the Delay
	// fast path (a process may only advance the clock inline up to
	// the point where the run loop itself would have stopped).
	limit units.Time
	// failed stops the run loop with a recorded cause; see Fail.
	failed error
}

// NewEngine returns an empty kernel at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() units.Time { return e.now }

// Events returns the number of sequence numbers consumed since the
// engine was created: one per queued event, per inline Delay advance
// and per reserved Slot — every position in the (at, seq) order, queued
// or not.  Two runs of the same simulation with the same inputs must
// report the same count: a cheap fingerprint for determinism tests.
func (e *Engine) Events() uint64 { return e.seq }

// Counters are exact, always-on tallies beside Events() (plain
// integers): Dispatched counts event closures run, Resumes switches into
// a process, Continued wakes that ran a step function (Proc.Await)
// without one — so Resumes + Continued counts every wake a process
// took; reserved less materialised slots were never queued.
type Counters struct{ Dispatched, Resumes, Continued, SlotsReserved, SlotsMaterialised uint64 }

// Counters returns the tallies so far.
func (e *Engine) Counters() Counters { return e.ctr }

// newEvent stamps an event with the next sequence number.
func (e *Engine) newEvent(at units.Time, fn func()) *event {
	e.seq++
	return e.sched.event(at, e.seq, fn)
}

// Schedule runs fn at now+d.  A zero d means "as soon as possible",
// i.e. at the current time but after already-queued simultaneous
// events; a negative d panics with a *PastError.
func (e *Engine) Schedule(d units.Time, fn func()) {
	if d < 0 {
		e.past("Schedule", d)
	}
	e.sched.push(e.newEvent(e.now+d, fn))
}

// ScheduleAt runs fn at absolute time t; a t before now panics with a
// *PastError.
func (e *Engine) ScheduleAt(t units.Time, fn func()) {
	if t < e.now {
		e.past("ScheduleAt", t-e.now)
	}
	e.sched.push(e.newEvent(t, fn))
}

// PastError is the panic payload of a schedule into the virtual past: a
// negative delay to Schedule, Timer.Arm, Delay or Slot.Hold, or a
// ScheduleAt before now.  Clamped to now instead, the event would run
// ahead of causes that precede it.  Raised by a process it reaches
// Run's caller as the Value of a *ProcPanic; raised by an event it
// unwinds through Run's caller as it is.
type PastError struct {
	Call  string     // the scheduling call
	Delay units.Time // the negative delay asked for
	Now   units.Time // the virtual time of the call
}

// Error implements error.
func (p *PastError) Error() string {
	return fmt.Sprintf("des: %s with delay %v at %v schedules into the past", p.Call, p.Delay, p.Now)
}

// past is the cold path of every negative-delay check, kept out of line
// so a check costs its caller one compare.
//
//go:noinline
func (e *Engine) past(call string, d units.Time) {
	panic(&PastError{Call: call, Delay: d, Now: e.now})
}

// RunUntil executes events with timestamps <= limit.  Order, Events()
// and what each activity observes are exact for any limit; the final
// clock is the later of the last event and last reserved Slot <= limit
// if no slot lies beyond limit (always so for Run), else it may trail.
func (e *Engine) RunUntil(limit units.Time) {
	prev := e.limit
	e.limit = limit
	defer func() { e.limit = prev }()
	for e.step(limit) {
	}
}

// step dispatches the next event <= limit and reports whether there was
// one; a closed or failed engine dispatches nothing, and an engine with
// nothing left <= limit settles its clock.
func (e *Engine) step(limit units.Time) bool {
	if e.stopped || e.failed != nil {
		return false
	}
	ev := e.sched.next(limit)
	if ev == nil {
		e.settle(limit)
		return false
	}
	e.dispatch(ev)
	return true
}

// Run executes events until the event queue is empty.  Processes blocked
// on mailboxes or semaphores with no pending wake-up are left blocked;
// use Blocked to detect them (a non-zero count usually means deadlock in
// the modelled system).
func (e *Engine) Run() {
	e.RunUntil(units.Never)
}

// settle runs when nothing queued <= limit is left: the caller's next
// move is ordered after every position consumed, and the clock moves
// over trailing slots — if none lies beyond limit (horizon is one max).
func (e *Engine) settle(limit units.Time) {
	e.cur = e.seq
	if e.horizon <= limit && e.horizon > e.now {
		e.now = e.horizon
	}
}

// dispatch executes one popped event on the calling goroutine — the only
// place an event closure ever runs.  An event that wakes a process runs
// it, inside wake, up to its next block; a panic from the event (the
// watchdog, a scheduling bug) or from that process (*ProcPanic) unwinds
// straight through Run's caller.
func (e *Engine) dispatch(ev *event) {
	if ev.at > e.now {
		e.now = ev.at
	}
	e.cur = ev.seq
	e.ctr.Dispatched++
	ev.fn()
	e.sched.recycle(ev)
}

// Fail records a fatal simulation error and stops the run loop at the
// current virtual time.  The modelled system uses it to surface
// unrecoverable protocol failures (an unreachable peer, an exhausted
// retry budget) as an error from the driver instead of a silent wedge.
// Only the first failure is kept.
func (e *Engine) Fail(err error) {
	if e.failed == nil {
		e.failed = err
	}
}

// Err returns the error recorded by Fail, if any.
func (e *Engine) Err() error { return e.failed }

// SetWatchdog arms the blocking-wait watchdog: any single park on a
// mailbox, semaphore or signal that lasts longer than d of virtual time
// panics (from engine context, so Run's caller can recover) with a
// *WatchdogError carrying the full set of parked waiters.  A wedged
// protocol thereby becomes a crash with a who-waits-on-whom map instead
// of a silently parked process.  d = 0 disables the watchdog.
func (e *Engine) SetWatchdog(d units.Time) { e.watchdog = d }

// WaitInfo describes one blocked process for watchdog/deadlock dumps.
type WaitInfo struct {
	Proc  string     // process name
	On    string     // facility it is parked on
	Since units.Time // virtual time the park began
}

// Waiters returns the currently blocked processes in spawn order.
func (e *Engine) Waiters() []WaitInfo {
	var ws []WaitInfo
	for _, p := range e.procs {
		if p.blocked {
			ws = append(ws, WaitInfo{Proc: p.name, On: p.waitOn, Since: p.waitStart})
		}
	}
	return ws
}

// FormatWaiters renders a waiter dump, one process per line.
func FormatWaiters(ws []WaitInfo) string {
	var b strings.Builder
	for _, w := range ws {
		on := w.On
		if on == "" {
			on = "<unnamed>"
		}
		fmt.Fprintf(&b, "  %s waits on %s since %v\n", w.Proc, on, w.Since)
	}
	return strings.TrimRight(b.String(), "\n")
}

// WatchdogError is the panic payload of a tripped wait watchdog.
type WatchdogError struct {
	Limit   units.Time // the configured bound that was exceeded
	Culprit string     // the wait that tripped
	Waiters []WaitInfo // everyone parked at trip time
}

// Error implements error.
func (w *WatchdogError) Error() string {
	return fmt.Sprintf("des: watchdog: %s exceeded the %v wait limit; parked waiters:\n%s",
		w.Culprit, w.Limit, FormatWaiters(w.Waiters))
}

// ProcPanic wraps a panic raised inside a simulated process.  It is
// raised again on the dispatcher, so the caller of Run can recover and
// report it; Value is the original panic payload and Stack the
// coroutine's stack captured at the panic site.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

// newProcPanic wraps v, raised in the named process, with the stack of
// the panic site.
func newProcPanic(name string, v any) *ProcPanic {
	return &ProcPanic{Proc: name, Value: v, Stack: debug.Stack()}
}

// Error implements error.
func (p *ProcPanic) Error() string {
	return fmt.Sprintf("des: process %s panicked: %v", p.Proc, p.Value)
}

// Unwrap exposes the original payload when it was itself an error.
func (p *ProcPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Timer is a re-armable, cancellable one-shot activity.  Bind it once
// with Init; Arm then allocates nothing.  A cancelled expiry is removed
// from the event queue outright: it neither runs nor drags the virtual
// clock to its time.  The Timer must not be copied after Init.
type Timer struct {
	eng  *Engine
	fire func() // the expiry event's fn, bound by Init
	ev   *event
}

// Init binds the timer to e; fn runs, in engine context, at each expiry,
// the timer idle again, so fn may re-arm it.
func (t *Timer) Init(e *Engine, fn func()) {
	t.eng = e
	t.fire = func() {
		t.ev = nil
		fn()
	}
}

// Arm schedules the expiry at now+d, cancelling a pending one first, and
// takes one sequence number, as Schedule does; a negative d panics with
// a *PastError.
func (t *Timer) Arm(d units.Time) {
	e := t.eng
	if d < 0 {
		e.past("Timer.Arm", d)
	}
	t.Cancel()
	t.ev = e.newEvent(e.now+d, t.fire)
	e.sched.push(t.ev)
}

// Cancel removes a pending expiry from the event queue.  It is a no-op
// if the timer is idle: never armed, fired or already cancelled.
func (t *Timer) Cancel() {
	if t.ev == nil {
		return
	}
	t.eng.sched.cancel(t.ev)
	t.ev = nil
}

// Active reports whether an expiry is pending.
func (t *Timer) Active() bool { return t.ev != nil }

// Slot is the "idle again" event of a serially reusable facility (a
// link, a DMA pump), always counted but queued only if work arrives
// during the hold — on an uncontended fabric it almost never does.  Hold
// with nothing waiting reserves the event's (at, seq) position, taking
// the sequence number where Schedule would have; Await, asked by whoever
// brings work, finds the facility idle if the running activity is
// ordered after that position and otherwise queues the event there.
// Every event that runs keeps its (at, seq), so order, clock and
// Events() match an always-queued event (DESIGN.md, "Reserved slots").
type Slot struct {
	eng     *Engine
	release func()
	at      units.Time
	seq     uint64
	state   uint8
}

// A Slot's facility is idle, held with the release position reserved,
// or held with the release event queued.  A hold whose position the
// running activity has reached is over whatever state says (Await).
const (
	slotIdle uint8 = iota
	slotReserved
	slotQueued
)

// Init binds the slot of an idle facility.  release runs, the facility
// idle again, when a hold ends with work waiting; it calls Hold in turn.
func (s *Slot) Init(e *Engine, release func()) { s.eng, s.release = e, release }

// Hold marks the idle facility held for d.  waiting says work is already
// queued behind the hold: the release event is then queued outright.  A
// negative d panics with a *PastError.
func (s *Slot) Hold(d units.Time, waiting bool) {
	e := s.eng
	if d < 0 {
		e.past("Slot.Hold", d)
	}
	e.seq++
	s.at, s.seq = e.now+d, e.seq
	if waiting {
		s.state = slotQueued
		e.sched.push(e.sched.event(s.at, s.seq, s.release))
		return
	}
	s.state = slotReserved
	e.ctr.SlotsReserved++
	if s.at > e.horizon {
		e.horizon = s.at
	}
}

// Await reports whether the facility is still held as the running
// activity sees it, and if so guarantees that release will run when the
// hold ends.  False means the caller must start its work itself.
func (s *Slot) Await() bool {
	if s.state == slotIdle {
		return false
	}
	e := s.eng
	if e.now > s.at || e.now == s.at && e.cur >= s.seq {
		s.state = slotIdle
		return false
	}
	if s.state == slotReserved {
		s.state = slotQueued
		e.ctr.SlotsMaterialised++
		e.sched.push(e.sched.event(s.at, s.seq, s.release))
	}
	return true
}

// Step executes a single event — and, when that event wakes a process,
// the process up to its next block — and reports whether one ran: after
// Close or Fail, or with the queue empty, none does.  A reserved Slot is
// not an event: Step never stops on one.  Step leaves any RunUntil
// bound in force for the Delay fast path as it is.
func (e *Engine) Step() bool { return e.step(units.Never) }

// Pending returns the number of queued (uncancelled) events; a reserved
// Slot that nothing has needed is not among them.
func (e *Engine) Pending() int { return e.sched.len() }

// Blocked returns the number of live processes currently waiting on a
// blocking primitive.
func (e *Engine) Blocked() int {
	n := 0
	for _, p := range e.procs {
		if p.blocked {
			n++
		}
	}
	return n
}

// Close terminates all live processes by unwinding their coroutines.
// After Close the engine must not be used.  It is safe to call Close on
// an engine whose Run has returned; it is also idempotent.
func (e *Engine) Close() {
	e.stopped = true
	// Detach the list first: an unwinding process may run deferred code
	// that kills another, and dropProc must not shift the slice under
	// this loop.
	procs := e.procs
	e.procs = nil
	for _, p := range procs {
		if p.blocked && !p.dead {
			p.dead = true
			p.stop()
		}
	}
}

// dropProc unregisters a finished process, preserving spawn order.
// Called with the baton held, so no other activity touches the slice.
func (e *Engine) dropProc(p *Proc) {
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			return
		}
	}
}

// stopSignal is the panic payload used to unwind a killed process.
type stopSignal struct{}

// Interrupt is the panic payload raised inside a process that was
// asynchronously interrupted with Proc.Interrupt.  Unlike stopSignal it
// unwinds through the process's own code, so rank bodies can recover it
// at a well-defined frame, inspect the cause and retry.  Anything other
// than an *Interrupt recovered in such a handler must be re-panicked.
type Interrupt struct {
	Proc  string
	Cause error
}

// Error implements error.
func (i *Interrupt) Error() string {
	return fmt.Sprintf("des: process %s interrupted: %v", i.Proc, i.Cause)
}

// Unwrap exposes the interrupt cause.
func (i *Interrupt) Unwrap() error { return i.Cause }

// Proc is a simulated thread of control.
type Proc struct {
	eng  *Engine
	name string
	// The coroutine (iter.Pull over the process body): next switches
	// into it until it blocks or returns, yield switches back out and
	// reports false when stop, which unwinds it, was called meanwhile.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	blocked bool
	dead    bool

	// wakeFn is the bound wake method, created once at spawn: the
	// blocking primitives schedule it directly instead of allocating a
	// fresh closure per wake-up.
	wakeFn func()

	// waitOn/waitStart describe the current park for watchdog and
	// deadlock dumps; set by the blocking primitives.
	waitOn    string
	waitStart units.Time

	// wd is the park watchdog, armed by waitQueue.park and cancelled by
	// ParkEnd.  waitName, set by NameWaits, names a park begun inside
	// Await in the trip's Culprit; it is read only while step is set.
	wd       Timer
	waitName func() string

	// Asynchronous-termination state.  intr is a pending Interrupt
	// cause, raised in process context at the next blocking boundary;
	// parkFac is the wait queue of the current park (so Interrupt and
	// Kill can detach a parked process); inExec marks a pending
	// compute phase, during which termination is deferred until the
	// phase's completion wake (the phase runs first, as it has inline);
	// killPending records a Kill deferred that way.
	intr        error
	parkFac     *waitQueue
	inExec      bool
	killPending bool

	// execFn is the compute phase pending under a pool (at most one per
	// process); execContFn is its completion event, bound once.
	execFn     func()
	execContFn func()

	// step is the step function of a pending Await, run by wake in
	// place of a switch into the process.
	step func() bool
}

// Spawn creates a process running fn and schedules its first activation
// "now".  fn runs in coroutine discipline; when it returns the process
// disappears.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = p.wake
	p.wd.Init(e, p.wdFire)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if _, ok := r.(stopSignal); ok {
				return // killed; the killer did the bookkeeping
			}
			p.dead = true
			e.dropProc(p)
			if r != nil {
				// Real bug in simulation code: wrap it with the stack of
				// the panic site (still on this coroutine) and let
				// iter.Pull raise it from next, on the dispatcher.
				pp, ok := r.(*ProcPanic)
				if !ok {
					pp = newProcPanic(p.name, r)
				}
				panic(pp)
			}
		}()
		fn(p)
	})
	e.procs = append(e.procs, p)
	p.blocked = true
	e.Schedule(0, p.wakeFn)
	return p
}

// wake resumes p on the dispatcher and returns when p next blocks or
// finishes.  Every caller invokes wake as the last effect of its event,
// so the process observes exactly the state the event left.  A process
// waiting in Await runs its step here instead, and is switched into only
// once the step is done or an interrupt is pending.  Must only be called
// from engine context (inside an event).
func (p *Proc) wake() {
	if p.dead {
		return
	}
	if p.killPending {
		// A Kill arrived while the process had a compute phase pending;
		// its completion wake, the phase having run, is where it unwinds.
		p.killPending = false
		p.finishKill()
		return
	}
	if p.step != nil {
		if p.intr == nil && !p.step() {
			p.eng.ctr.Continued++
			return
		}
		p.step = nil
	}
	p.blocked = false
	p.eng.ctr.Resumes++
	p.next()
}

// Kill terminates a blocked process at the current virtual instant, as
// a node crash does: the process unwinds without running any more
// simulated work, it is detached from whatever facility it was parked
// on, and its pending wake-ups become no-ops (dropped events).  Must be
// called from engine or another process's context, never on the running
// process itself.  Killing a dead process is a no-op.
func (p *Proc) Kill() {
	if p.dead {
		return
	}
	if p.inExec {
		// Mid-Exec: the pending phase must still run (inline it has).
		// Defer the unwind to its completion wake.
		p.killPending = true
		return
	}
	p.finishKill()
}

// finishKill detaches and unwinds a blocked process.  From another
// process's context the unwind is a coroutine switch nested inside the
// killer's coroutine, which the runtime allows.
func (p *Proc) finishKill() {
	if p.parkFac != nil {
		p.parkFac.drop(p)
		p.parkFac = nil
	}
	p.wd.Cancel()
	p.step = nil
	p.dead = true
	p.eng.dropProc(p)
	p.stop()
}

// Interrupt arranges for cause to be raised inside the process as an
// *Interrupt panic at its current (or next) blocking boundary: the end
// of a park, delay or pending compute phase.  A parked process is
// detached from its facility and woken at the current virtual instant;
// a running or mid-Exec one surfaces the interrupt when it next
// yields.  Interrupting a dead process, or one with an interrupt
// already pending, is a no-op.  Must be called from engine or another
// process's context.
func (p *Proc) Interrupt(cause error) {
	if p.dead || p.intr != nil {
		return
	}
	p.intr = cause
	if !p.blocked || p.inExec {
		return
	}
	if p.parkFac != nil && p.parkFac.drop(p) {
		p.eng.Schedule(0, p.wakeFn)
	}
	// A facility park whose wake was already in flight, and a plain
	// Delay, surface the interrupt when that pending wake fires.
}

// maybeInterrupt raises a pending interrupt (process context), called
// at every blocking boundary after the park state is torn down.
func (p *Proc) maybeInterrupt() {
	if p.intr == nil {
		return
	}
	cause := p.intr
	p.intr = nil
	panic(&Interrupt{Proc: p.name, Cause: cause})
}

// block parks the process until its wake event fires: it switches back
// to the dispatcher, which carries on with the event queue, and unwinds
// if the process was killed instead of woken.  Must only be called from
// process context.
func (p *Proc) block() {
	p.blocked = true
	if !p.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// mayBlock opens every blocking call.  A killed process that reaches
// one from a deferred function, on its way out, must neither park again
// (nothing would ever wake it) nor advance the clock: the stop is raised
// again instead.  Neither may an Exec phase block, inline or pooled.
func (p *Proc) mayBlock() {
	if p.dead || p.eng.phase != nil {
		p.refuseBlock()
	}
}

// refuseBlock is mayBlock's slow path, out of line so the check inlines.
func (p *Proc) refuseBlock() {
	if p.dead {
		panic(stopSignal{})
	}
	p.eng.phase.inPhase("a blocking call")
}

// runPhase runs fn as p's Exec phase.  Inline the phase runs at
// submission, under a pool at its completion event, so anything it did
// to the engine would differ between the two: a blocking call inside it
// panics (mayBlock), and so does an event it scheduled — found by the
// sequence number, which keeps the check off Schedule's path.
func (p *Proc) runPhase(fn func()) {
	e := p.eng
	seq := e.seq
	e.phase = p
	fn()
	e.phase = nil
	if e.seq != seq {
		p.inPhase("an event scheduled")
	}
}

// inPhase is the tripwire of the Exec contract: it panics as p, whose
// phase made call.
func (p *Proc) inPhase(call string) {
	p.eng.phase = nil
	panic(newProcPanic(p.name, errors.New("des: "+call+" inside the Exec phase of "+p.name+
		"; a phase may touch only its rank's own state")))
}

// wdFire is the watchdog handler (engine context): it panics with the
// waiter map, the starved process among the waiters.  The culprit is
// the park, or the wait a pending Await's step names through NameWaits.
func (p *Proc) wdFire() {
	culprit := ""
	if p.step != nil && p.waitName != nil {
		culprit = p.waitName()
	}
	if culprit == "" {
		culprit = fmt.Sprintf("%s (parked on %s)", p.name, p.waitOn)
	}
	panic(&WatchdogError{Limit: p.eng.watchdog, Culprit: culprit, Waiters: p.eng.Waiters()})
}

// NameWaits sets how a watchdog trip names a park of this process
// begun inside Await: name returns the Culprit, or "" for the default
// "name (parked on facility)".  It is called only at a trip, and never
// once the Await has ended, so a finished or interrupted step does not
// name a later park.
func (p *Proc) NameWaits(name func() string) { p.waitName = name }

// ParkEnd ends the park a step form began, once its wake has come.
func (p *Proc) ParkEnd() {
	p.wd.Cancel()
	p.parkFac = nil
	p.waitOn = ""
}

// park blocks until the wake of a park a step form began, ends it and
// raises a pending interrupt.
func (p *Proc) park() {
	p.block()
	p.ParkEnd()
	p.maybeInterrupt()
}

// Await runs step to completion as a stretch of this process: step
// performs the process's engine operations through the step forms of
// the blocking calls and reports true when it is done, false when it
// has begun a block (a StepDelay that did not advance inline, a park).
// The first call runs here; every later one runs on the dispatcher, in
// the wake of the block the previous call began, with no switch into
// the process.  So step must leave each block exactly as the process
// would — ParkEnd after a park, nothing after a StepDelay — before its
// next operation.  A wake with an interrupt pending does not run step:
// it switches in, and Await ends the park and raises the interrupt, as
// the blocking call of the process form would have.
func (p *Proc) Await(step func() bool) {
	if step() {
		return
	}
	p.step = step
	p.block()
	if p.intr != nil {
		p.ParkEnd()
		p.maybeInterrupt()
	}
}

// Engine returns the kernel this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.now }

// Delay suspends the process for d of virtual time.  A zero d yields
// the baton without advancing the clock (other simultaneous events run
// first); a negative d panics with a *PastError, which reaches Run's
// caller wrapped in a *ProcPanic naming the process.
func (p *Proc) Delay(d units.Time) {
	if !p.StepDelay(d) {
		p.block()
	}
	p.maybeInterrupt()
}

// StepDelay is the step form of Delay: it reports true when the clock
// advanced inline and false when the wake is scheduled, to be waited
// for.
func (p *Proc) StepDelay(d units.Time) bool {
	p.mayBlock()
	e := p.eng
	if d < 0 {
		e.past("Delay", d)
	}
	at := e.now + d
	// Fast path: when nothing else is scheduled before this delay would
	// expire (and the run loop's limit covers it), yielding the baton
	// would only bounce it straight back here.  Advance the clock inline
	// instead.  The sequence number is consumed exactly as if the wake
	// event had been queued and fired (and becomes cur, past any Slot
	// reserved before), so clock, event order and event count are
	// bit-identical to the slow path.
	if !e.stopped && e.failed == nil && at <= e.limit {
		if nxt := e.sched.head(); nxt == nil || nxt.at > at {
			e.seq++
			e.cur = e.seq
			e.now = at
			return true
		}
	}
	e.Schedule(d, p.wakeFn)
	return false
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Queue is an unbounded FIFO ring; the zero value is empty.  Steady
// traffic recycles one buffer, where an append + [1:] slice leaks its
// front capacity and re-grows.  Capacities are powers of two (4, then
// doubling), so a position wraps by mask, not %.
type Queue[T any] struct {
	buf     []T
	head, n int
}

// Push appends v, growing the ring when full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest item; the queue must not be empty.
// The vacated slot is zeroed so the ring never retains a pointer past
// its Pop.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the oldest item without removing it.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// At returns the i-th oldest item, 0 <= i < Len.
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// waitQueue is the FIFO of processes parked on one facility, which name
// identifies in watchdog and deadlock dumps.
type waitQueue struct {
	name string
	q    Queue[*Proc]
}

// park joins p to the queue, arming the engine's watchdog if one is
// configured.  Interrupt and Kill detach p again (drop).
func (w *waitQueue) park(p *Proc) {
	p.mayBlock()
	w.q.Push(p)
	p.waitOn, p.waitStart = w.name, p.eng.now
	p.parkFac = w
	if limit := p.eng.watchdog; limit > 0 {
		p.wd.Arm(limit)
	}
}

// wakeOne schedules the wake of the longest-parked process, if any.
func (w *waitQueue) wakeOne(e *Engine) {
	if w.q.Len() > 0 {
		e.Schedule(0, w.q.Pop().wakeFn)
	}
}

// drop removes p, the others keeping their order, and reports whether
// it was still parked here.
func (w *waitQueue) drop(p *Proc) bool {
	found := false
	for n := w.q.Len(); n > 0; n-- {
		if q := w.q.Pop(); q == p {
			found = true
		} else {
			w.q.Push(q)
		}
	}
	return found
}

// Mailbox is an unbounded FIFO queue connecting activities.  Send may be
// called from event or process context; Recv only from process context.
type Mailbox[T any] struct {
	eng     *Engine
	items   Queue[T]
	waiters waitQueue
}

// NewMailbox creates an empty mailbox on engine e.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: e, waiters: waitQueue{name: name}}
}

// Send enqueues v and wakes the longest-waiting receiver, if any.  The
// receiver observes the item at the current virtual time.
func (m *Mailbox[T]) Send(v T) {
	m.items.Push(v)
	m.waiters.wakeOne(m.eng)
}

// Recv dequeues the oldest item, blocking the calling process until one
// is available.  The park is subject to the engine watchdog.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for {
		if v, ok := m.RecvStep(p); ok {
			return v
		}
		p.park()
	}
}

// RecvStep is the step form of Recv: the item and true, or false with p
// parked until a Send (then ParkEnd and call again).
func (m *Mailbox[T]) RecvStep(p *Proc) (T, bool) {
	if m.items.Len() == 0 {
		m.waiters.park(p)
		var zero T
		return zero, false
	}
	return m.items.Pop(), true
}

// TryRecv dequeues the oldest item without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return m.items.Pop(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.Len() }

// Semaphore is a counting semaphore with FIFO wake-up order, used to
// model the shared-memory semaphores of the mix-mode primitives (§4.1,
// §4.2).
type Semaphore struct {
	eng     *Engine
	count   int
	waiters waitQueue
}

// NewSemaphore creates a semaphore with an initial count.  The name
// identifies it in watchdog and deadlock dumps.
func NewSemaphore(e *Engine, name string, initial int) *Semaphore {
	return &Semaphore{eng: e, count: initial, waiters: waitQueue{name: name}}
}

// Acquire decrements the semaphore, blocking while the count is zero.
// The park is subject to the engine watchdog.
func (s *Semaphore) Acquire(p *Proc) {
	for !s.AcquireStep(p) {
		p.park()
	}
}

// AcquireStep is the step form of Acquire: true once decremented, false
// with p parked until a Release (then ParkEnd and call again).
func (s *Semaphore) AcquireStep(p *Proc) bool {
	if s.count == 0 {
		s.waiters.park(p)
		return false
	}
	s.count--
	return true
}

// Release increments the semaphore and wakes one waiter.  Callable from
// event or process context.
func (s *Semaphore) Release() {
	s.count++
	s.waiters.wakeOne(s.eng)
}

// Signal is a lost-wakeup-safe edge notification: waiters snapshot the
// sequence number before testing their predicate, and Wait returns
// immediately if any Broadcast happened after the snapshot.  It is the
// DES analogue of a condition variable with a generation counter.
type Signal struct {
	eng     *Engine
	seq     uint64
	waiters waitQueue
}

// NewSignal creates a signal on engine e.  The name identifies it in
// watchdog and deadlock dumps.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, waiters: waitQueue{name: name}}
}

// Seq returns the current generation, to be snapshotted before testing
// the guarded predicate.
func (s *Signal) Seq() uint64 { return s.seq }

// Broadcast advances the generation and wakes all current waiters in
// the order they parked.  Callable from event or process context.
// Scheduling a wake parks no one (wakes are events), so the loop ends.
func (s *Signal) Broadcast() {
	s.seq++
	for s.waiters.q.Len() > 0 {
		s.waiters.wakeOne(s.eng)
	}
}

// Wait blocks the process until the generation advances past the
// snapshot.  If it already has, Wait returns immediately.  The park is
// subject to the engine watchdog.
func (s *Signal) Wait(p *Proc, snapshot uint64) {
	if !s.WaitStep(p, snapshot) {
		p.park()
	}
}

// WaitStep is the step form of Wait: true if the generation has
// advanced, false with p parked until it does (then ParkEnd).
func (s *Signal) WaitStep(p *Proc, snapshot uint64) bool {
	if s.seq != snapshot {
		return true
	}
	s.waiters.park(p)
	return false
}

// Resource models a serially-reusable facility (a bus, a link) with
// busy-until semantics.  Claim returns the time at which a use of
// duration d that becomes ready at "ready" will complete, advancing the
// facility's horizon; it never blocks, making it suitable for event-chain
// hardware models.
type Resource struct {
	freeAt units.Time
}

// Claim reserves the resource for d starting no earlier than ready, and
// returns the [start, end] of the granted slot.
func (r *Resource) Claim(ready units.Time, d units.Time) (start, end units.Time) {
	start = ready
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + d
	r.freeAt = end
	return start, end
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() units.Time { return r.freeAt }
