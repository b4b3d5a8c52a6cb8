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
//     processor).  A process blocks by calling Delay, Mailbox.Recv or
//     Semaphore.Acquire; control transfers back to the kernel until the
//     wake-up event fires.
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
// Activities run in strict (at, seq) order; seq is drawn by every queued
// event, inline Delay advance and reserved Slot — a position need not be
// an event (a Slot queues its event only if something needs it).
package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"strings"

	"hyades/internal/units"
)

// event is a scheduled activity.  The scheduler owns the bookkeeping
// fields: idx is the event's slot within its container (heap position,
// or position inside an unsorted ladder region, where it makes
// cancellation an O(1) swap-remove); rng and bkt locate that container
// in the ladder; dead marks a tombstoned cancellation awaiting drain.
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
	sched scheduler
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

	// free is the event freelist.  Every Schedule used to allocate an
	// event; recycling fired (and cancelled) events makes scheduling
	// allocation-free in steady state — the dominant allocation of the
	// communication hot paths.
	free []*event

	// pool, when set, defers compute phases (Proc.Exec) to their
	// completion events.  Nil means Exec runs inline.
	pool *Pool

	// watchdog bounds any single blocking wait; see SetWatchdog.
	watchdog units.Time
	// limit is the active RunUntil bound, consulted by the Delay
	// fast path (a process may only advance the clock inline up to
	// the point where the run loop itself would have stopped).
	limit units.Time
	// failed stops the run loop with a recorded cause; see Fail.
	failed error
}

// NewEngine returns an empty kernel at virtual time zero, using the
// default ladder-queue scheduler.
func NewEngine() *Engine {
	return NewEngineWithScheduler(SchedLadder)
}

// NewEngineWithScheduler returns an empty kernel with an explicit
// event-queue implementation.  Both kinds execute events in the same
// strict (at, seq) order, so a simulation's digest is identical under
// either — the determinism suite asserts exactly that.
func NewEngineWithScheduler(kind SchedulerKind) *Engine {
	e := &Engine{}
	switch kind {
	case SchedHeap:
		e.sched = &heapSched{}
	default:
		e.sched = &ladderQueue{}
	}
	return e
}

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
// a process; reserved less materialised slots were never queued.
type Counters struct{ Dispatched, Resumes, SlotsReserved, SlotsMaterialised uint64 }

// Counters returns the tallies so far.
func (e *Engine) Counters() Counters { return e.ctr }

// newEvent stamps an event with the next sequence number.
func (e *Engine) newEvent(at units.Time, fn func()) *event {
	e.seq++
	return e.eventAt(at, e.seq, fn)
}

// eventAt takes an event from the freelist (or allocates one) for the
// position (at, seq): a fresh number, or one a Slot reserved earlier.
func (e *Engine) eventAt(at units.Time, seq uint64, fn func()) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, seq, fn
		return ev
	}
	return &event{at: at, seq: seq, fn: fn}
}

// recycle returns a fired or cancelled event to the freelist.  The
// closure is dropped so recycling never retains captured state.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// cancelEvent removes a queued event.  Schedulers that tombstone
// instead of removing hand the event back through popNext, which
// recycles it there.
func (e *Engine) cancelEvent(ev *event) {
	if e.sched.cancel(ev) {
		e.recycle(ev)
	}
}

// popNext returns the next live event, draining (and recycling) any
// tombstoned cancellations in front of it.  Nil means the queue is
// empty.
func (e *Engine) popNext() *event {
	for {
		ev := e.sched.pop()
		if ev == nil || !ev.dead {
			return ev
		}
		e.recycle(ev)
	}
}

// peekNext returns the next live event without removing it; dead events
// at the front are drained so the caller's timestamp check sees a real
// activity.
func (e *Engine) peekNext() *event {
	for {
		ev := e.sched.peek()
		if ev == nil || !ev.dead {
			return ev
		}
		e.sched.pop()
		e.recycle(ev)
	}
}

// Schedule runs fn at now+d.  A non-positive d means "as soon as
// possible", i.e. at the current time but after already-queued
// simultaneous events.
func (e *Engine) Schedule(d units.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.sched.push(e.newEvent(e.now+d, fn))
}

// ScheduleAt runs fn at absolute time t (clamped to the present).
func (e *Engine) ScheduleAt(t units.Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.sched.push(e.newEvent(t, fn))
}

// RunUntil executes events with timestamps <= limit.  Order, Events()
// and what each activity observes are exact for any limit; the final
// clock is the later of the last event and last reserved Slot <= limit
// if no slot lies beyond limit (always so for Run), else it may trail.
func (e *Engine) RunUntil(limit units.Time) {
	prev := e.limit
	e.limit = limit
	defer func() { e.limit = prev }()
	for !e.stopped && e.failed == nil {
		ev := e.peekNext()
		if ev == nil || ev.at > limit {
			e.settle(limit)
			return
		}
		e.sched.pop()
		e.dispatch(ev)
	}
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
	e.recycle(ev)
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

// WatchdogLimit returns the configured watchdog bound (0 = disabled).
func (e *Engine) WatchdogLimit() units.Time { return e.watchdog }

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

// Timer is a cancellable one-shot activity created by Engine.After.
type Timer struct {
	eng *Engine
	ev  *event
}

// After schedules fn at now+d and returns a handle that can cancel it.
// Unlike Schedule, a cancelled After is removed from the event queue
// outright: it neither runs nor drags the virtual clock to its expiry.
func (e *Engine) After(d units.Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{eng: e}
	ev := e.newEvent(e.now+d, nil)
	ev.fn = func() {
		t.ev = nil
		fn()
	}
	t.ev = ev
	e.sched.push(ev)
	return t
}

// Cancel removes the timer from the event queue.  It is a no-op if the
// timer already fired or was already cancelled.
func (t *Timer) Cancel() {
	if t.ev == nil {
		return
	}
	ev := t.ev
	t.ev = nil
	t.eng.cancelEvent(ev)
}

// Active reports whether the timer is still pending.
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
// queued behind the hold: the release event is then queued outright.
func (s *Slot) Hold(d units.Time, waiting bool) {
	e := s.eng
	e.seq++
	s.at, s.seq = e.now+max(d, 0), e.seq
	if waiting {
		s.state = slotQueued
		e.sched.push(e.eventAt(s.at, s.seq, s.release))
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
		e.sched.push(e.eventAt(s.at, s.seq, s.release))
	}
	return true
}

// Step executes a single event — and, when that event wakes a process,
// the process up to its next block — and reports whether one was
// available.  A reserved Slot is not an event: Step never stops on one.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.popNext()
	if ev == nil {
		e.settle(units.Never)
		return false
	}
	e.dispatch(ev)
	return true
}

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

// waiterList is a blocking facility that can detach a parked process —
// the deadline-expiry hook of parkDeadline.  Implemented by Mailbox and
// Signal; an interface rather than a closure so arming a deadline wait
// allocates nothing.
type waiterList interface {
	dropWaiter(p *Proc) bool
}

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

	// Park-expiry state: wdEv is the armed watchdog/deadline event
	// (nil when idle), wdFireFn the bound expiry handler, wdFacility
	// the facility to detach from on a deadline expiry (nil for a
	// watchdog park, whose expiry panics instead), expired the outcome
	// flag parkDeadline reads back.  One event object cycles through
	// the engine freelist instead of a Timer + closures per park.
	wdEv       *event
	wdFireFn   func()
	wdFacility waiterList
	expired    bool

	// Asynchronous-termination state.  intr is a pending Interrupt
	// cause, raised in process context at the next blocking boundary;
	// parkFac is the facility of the current park (so Interrupt and
	// Kill can detach a parked process); inExec marks a pending
	// compute phase, during which termination is deferred until the
	// phase's completion wake (the phase runs first, as it has inline);
	// killPending records a Kill deferred that way.
	intr        error
	parkFac     waiterList
	inExec      bool
	killPending bool

	// execFn is the compute phase pending under a pool (at most one per
	// process); execContFn is its completion event, bound once.
	execFn     func()
	execContFn func()
}

// Spawn creates a process running fn and schedules its first activation
// "now".  fn runs in coroutine discipline; when it returns the process
// disappears.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = p.wake
	p.wdFireFn = p.wdFire
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
				panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
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
// so the process observes exactly the state the event left.  Must only
// be called from engine context (inside an event).
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
		p.parkFac.dropWaiter(p)
		p.parkFac = nil
	}
	p.disarmWd()
	p.wdFacility = nil
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
	if p.parkFac != nil && p.parkFac.dropWaiter(p) {
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

// reraiseStop opens every blocking call.  A killed process that reaches
// one from a deferred function, on its way out, must neither park again
// (nothing would ever wake it) nor advance the clock: the stop is raised
// again instead.  fac is the waiter list the caller has already joined,
// if any.
func (p *Proc) reraiseStop(fac waiterList) {
	if !p.dead {
		return
	}
	if fac != nil {
		fac.dropWaiter(p)
	}
	panic(stopSignal{})
}

// armWd schedules the process's expiry event at now+d; disarmWd removes
// and recycles it if it has not fired.  The event's fn is the bound
// wdFireFn, so arming a park costs no allocation in steady state.
func (p *Proc) armWd(d units.Time) {
	if d < 0 {
		d = 0
	}
	ev := p.eng.newEvent(p.eng.now+d, p.wdFireFn)
	p.wdEv = ev
	p.eng.sched.push(ev)
}

func (p *Proc) disarmWd() {
	if p.wdEv == nil {
		return
	}
	ev := p.wdEv
	p.wdEv = nil
	p.eng.cancelEvent(ev)
}

// wdFire is the park-expiry handler (engine context).  A watchdog park
// (no facility) panics with the waiter map; a deadline park detaches
// from its facility and wakes the process — unless a wake on the same
// timestamp already claimed it, in which case expiry yields.
func (p *Proc) wdFire() {
	p.wdEv = nil
	fac := p.wdFacility
	if fac == nil {
		panic(&WatchdogError{
			Limit:   p.eng.watchdog,
			Culprit: fmt.Sprintf("%s (parked on %s)", p.name, p.waitOn),
			Waiters: p.eng.Waiters(),
		})
	}
	if fac.dropWaiter(p) {
		p.expired = true
		p.wake()
	}
}

// park blocks p on the named facility, arming the engine's watchdog if
// one is configured.  fac is the facility whose waiter list holds p, so
// Interrupt and Kill can detach it; a pending interrupt is raised as the
// park ends.
func (p *Proc) park(on string, fac waiterList) {
	p.reraiseStop(fac)
	p.waitOn, p.waitStart = on, p.eng.now
	p.parkFac = fac
	if limit := p.eng.watchdog; limit > 0 {
		p.armWd(limit)
	}
	p.block()
	p.disarmWd()
	p.parkFac = nil
	p.waitOn = ""
	p.maybeInterrupt()
}

// parkDeadline blocks p on the named facility for at most d; it returns
// true if p was woken normally and false if the deadline elapsed.  fac
// detaches p from the facility's waiter list on expiry, reporting
// whether p was still parked there (guarding against a wake and an
// expiry landing on the same timestamp).
func (p *Proc) parkDeadline(on string, d units.Time, fac waiterList) bool {
	p.reraiseStop(fac)
	p.waitOn, p.waitStart = on, p.eng.now
	p.expired = false
	p.wdFacility = fac
	p.parkFac = fac
	p.armWd(d)
	p.block()
	p.disarmWd()
	p.wdFacility = nil
	p.parkFac = nil
	p.waitOn = ""
	p.maybeInterrupt()
	return !p.expired
}

// Engine returns the kernel this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.now }

// Delay suspends the process for d of virtual time.  A non-positive d
// yields the baton without advancing the clock (other simultaneous
// events run first).
func (p *Proc) Delay(d units.Time) {
	p.reraiseStop(nil)
	e := p.eng
	if d < 0 {
		d = 0
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
		if nxt := e.peekNext(); nxt == nil || nxt.at > at {
			e.seq++
			e.cur = e.seq
			e.now = at
			p.maybeInterrupt()
			return
		}
	}
	e.Schedule(d, p.wakeFn)
	p.block()
	p.maybeInterrupt()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// popWaiter removes and returns the front of a waiter list in place,
// shifting the tail down so the slice keeps its capacity.  The old
// `w = w[1:]` idiom leaked front capacity, making every park/wake cycle
// re-grow the list — one of the dominant hot-path allocations.  Waiter
// lists are a handful of processes, so the shift is a short memmove.
func popWaiter(ws []*Proc) (*Proc, []*Proc) {
	w := ws[0]
	n := copy(ws, ws[1:])
	ws[n] = nil
	return w, ws[:n]
}

// removeWaiter deletes p from a waiter list in place (the vacated tail
// slot is zeroed), reporting whether it was still parked there.
func removeWaiter(ws *[]*Proc, p *Proc) bool {
	i := slices.Index(*ws, p)
	if i >= 0 {
		*ws = slices.Delete(*ws, i, i+1)
	}
	return i >= 0
}

// Mailbox is an unbounded FIFO queue connecting activities.  Send may be
// called from event or process context; Recv only from process context.
// Items live in a ring buffer so steady-state traffic recycles one
// allocation instead of re-growing a front-sliced append slice.
type Mailbox[T any] struct {
	eng     *Engine
	name    string
	buf     []T
	head, n int
	waiters []*Proc
}

// NewMailbox creates an empty mailbox on engine e.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: e, name: name}
}

// enqueue appends v to the ring, growing it when full.
func (m *Mailbox[T]) enqueue(v T) {
	if m.n == len(m.buf) {
		grown := make([]T, max(4, 2*len(m.buf)))
		for i := 0; i < m.n; i++ {
			grown[i] = m.buf[(m.head+i)%len(m.buf)]
		}
		m.buf, m.head = grown, 0
	}
	m.buf[(m.head+m.n)%len(m.buf)] = v
	m.n++
}

// dequeue removes and returns the oldest item.  The vacated slot is
// zeroed so the ring never retains pointers past their dequeue.
func (m *Mailbox[T]) dequeue() T {
	var zero T
	v := m.buf[m.head]
	m.buf[m.head] = zero
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	return v
}

// Send enqueues v and wakes the longest-waiting receiver, if any.  The
// receiver observes the item at the current virtual time.
func (m *Mailbox[T]) Send(v T) {
	m.enqueue(v)
	if len(m.waiters) > 0 {
		var w *Proc
		w, m.waiters = popWaiter(m.waiters)
		m.eng.Schedule(0, w.wakeFn)
	}
}

// Recv dequeues the oldest item, blocking the calling process until one
// is available.  The park is subject to the engine watchdog.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.n == 0 {
		m.waiters = append(m.waiters, p)
		p.park(m.name, m)
	}
	return m.dequeue()
}

// RecvDeadline dequeues the oldest item, blocking for at most d of
// virtual time.  It returns the zero value and false if the deadline
// elapses first; a wake and an expiry on the same timestamp resolve in
// event order, deterministically.  Deadline waits manage their own
// bound, so the engine watchdog does not apply to them.
func (m *Mailbox[T]) RecvDeadline(p *Proc, d units.Time) (T, bool) {
	deadline := m.eng.now + d
	for m.n == 0 {
		if m.eng.now >= deadline {
			var zero T
			return zero, false
		}
		m.waiters = append(m.waiters, p)
		if !p.parkDeadline(m.name, deadline-m.eng.now, m) {
			var zero T
			return zero, false
		}
	}
	return m.dequeue(), true
}

// dropWaiter implements waiterList.
func (m *Mailbox[T]) dropWaiter(p *Proc) bool { return removeWaiter(&m.waiters, p) }

// TryRecv dequeues the oldest item without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.n == 0 {
		var zero T
		return zero, false
	}
	return m.dequeue(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.n }

// Semaphore is a counting semaphore with FIFO wake-up order, used to
// model the shared-memory semaphores of the mix-mode primitives (§4.1,
// §4.2).
type Semaphore struct {
	eng     *Engine
	name    string
	count   int
	waiters []*Proc
}

// NewSemaphore creates a semaphore with an initial count.  The name
// identifies it in watchdog and deadlock dumps.
func NewSemaphore(e *Engine, name string, initial int) *Semaphore {
	return &Semaphore{eng: e, name: name, count: initial}
}

// Acquire decrements the semaphore, blocking while the count is zero.
// The park is subject to the engine watchdog.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.park(s.name, s)
	}
	s.count--
}

// dropWaiter implements waiterList.
func (s *Semaphore) dropWaiter(p *Proc) bool { return removeWaiter(&s.waiters, p) }

// Release increments the semaphore and wakes one waiter.  Callable from
// event or process context.
func (s *Semaphore) Release() {
	s.count++
	if len(s.waiters) > 0 {
		var w *Proc
		w, s.waiters = popWaiter(s.waiters)
		s.eng.Schedule(0, w.wakeFn)
	}
}

// Count returns the current semaphore value.
func (s *Semaphore) Count() int { return s.count }

// Signal is a lost-wakeup-safe edge notification: waiters snapshot the
// sequence number before testing their predicate, and Wait returns
// immediately if any Broadcast happened after the snapshot.  It is the
// DES analogue of a condition variable with a generation counter.
type Signal struct {
	eng     *Engine
	name    string
	seq     uint64
	waiters []*Proc
	// spare is the waiter buffer retired by the last Broadcast, swapped
	// back in so steady-state wait/broadcast cycles recycle two buffers
	// instead of allocating a fresh waiter list per generation.
	spare []*Proc
}

// NewSignal creates a signal on engine e.  The name identifies it in
// watchdog and deadlock dumps.
func NewSignal(e *Engine, name string) *Signal { return &Signal{eng: e, name: name} }

// Seq returns the current generation, to be snapshotted before testing
// the guarded predicate.
func (s *Signal) Seq() uint64 { return s.seq }

// Broadcast advances the generation and wakes all current waiters.
// Callable from event or process context.  Scheduling a wake can park
// no one (wakes are events), so swapping the retired buffer back in as
// the next waiter list is safe even if a woken process re-Waits before
// the next Broadcast.
func (s *Signal) Broadcast() {
	s.seq++
	waiters := s.waiters
	s.waiters = s.spare[:0]
	for i, w := range waiters {
		s.eng.Schedule(0, w.wakeFn)
		waiters[i] = nil
	}
	// The retiring buffer becomes the next spare; the buffers alternate
	// so neither slice header ever aliases the other's backing array.
	s.spare = waiters[:0]
}

// Wait blocks the process until the generation advances past the
// snapshot.  If it already has, Wait returns immediately.  The park is
// subject to the engine watchdog.
func (s *Signal) Wait(p *Proc, snapshot uint64) {
	if s.seq != snapshot {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park(s.name, s)
}

// WaitDeadline is Wait with a virtual-time bound: it returns true if
// the generation advanced (or had already advanced) and false if d
// elapsed first.  Deadline waits manage their own bound, so the engine
// watchdog does not apply to them.
func (s *Signal) WaitDeadline(p *Proc, snapshot uint64, d units.Time) bool {
	if s.seq != snapshot {
		return true
	}
	s.waiters = append(s.waiters, p)
	return p.parkDeadline(s.name, d, s)
}

// dropWaiter implements waiterList.
func (s *Signal) dropWaiter(p *Proc) bool { return removeWaiter(&s.waiters, p) }

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
