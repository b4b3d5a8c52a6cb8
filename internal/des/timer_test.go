package des

import (
	"errors"
	"strings"
	"testing"

	"hyades/internal/units"
)

// timer returns a timer bound to e that runs fn.
func timer(e *Engine, fn func()) *Timer {
	tm := new(Timer)
	tm.Init(e, fn)
	return tm
}

func TestTimerCancelDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := timer(e, func() { fired = true })
	tm.Arm(units.Hour)
	e.Schedule(units.Microsecond, func() { tm.Cancel() })
	e.Run()
	if fired {
		t.Fatalf("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatalf("cancelled timer still active")
	}
	if e.Now() != units.Microsecond {
		t.Fatalf("Now = %v, want 1us: cancelled timer dragged the clock", e.Now())
	}
}

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	var at units.Time
	tm := timer(e, func() { at = e.Now() })
	tm.Arm(3 * units.Microsecond)
	e.Run()
	if at != 3*units.Microsecond {
		t.Fatalf("timer fired at %v, want 3us", at)
	}
	if tm.Active() {
		t.Fatalf("fired timer still active")
	}
	tm.Cancel() // no-op after fire
}

func TestTimerCancelAmongOthers(t *testing.T) {
	// Cancelling an event from the middle of the queue must not disturb
	// the ordering of the remaining events.
	e := NewEngine()
	var got []int
	e.Schedule(1*units.Microsecond, func() { got = append(got, 1) })
	tm := timer(e, func() { got = append(got, 2) })
	tm.Arm(2 * units.Microsecond)
	e.Schedule(3*units.Microsecond, func() { got = append(got, 3) })
	e.Schedule(4*units.Microsecond, func() { got = append(got, 4) })
	tm.Cancel()
	e.Run()
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestTimerRearm: arming an active timer moves its one pending expiry,
// each Arm taking one sequence number as Schedule does, and the expiry
// may re-arm the timer it fires from.
func TestTimerRearm(t *testing.T) {
	e := NewEngine()
	var fired []units.Time
	var tm *Timer
	tm = timer(e, func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			tm.Arm(units.Microsecond)
		}
	})
	tm.Arm(5 * units.Microsecond)
	tm.Arm(2 * units.Microsecond)
	tm.Arm(3 * units.Microsecond)
	if e.Pending() != 1 || e.Events() != 3 {
		t.Fatalf("after three Arms: %d pending, %d events, want 1 and 3", e.Pending(), e.Events())
	}
	e.Run()
	want := []units.Time{3 * units.Microsecond, 4 * units.Microsecond, 5 * units.Microsecond}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if e.Events() != 5 || e.Now() != 5*units.Microsecond {
		t.Fatalf("run ended with %d events at %v, want 5 at 5us", e.Events(), e.Now())
	}
}

// TestTimerArmAllocatesNothing: once the event freelist is warm, an
// Arm/Cancel cycle and an Arm that fires allocate nothing.
func TestTimerArmAllocatesNothing(t *testing.T) {
	e := NewEngine()
	tm := timer(e, func() {})
	tm.Arm(units.Microsecond)
	e.Run()
	if n := testing.AllocsPerRun(100, func() {
		tm.Arm(units.Hour)
		tm.Cancel()
		tm.Arm(units.Microsecond)
		e.Run()
	}); n != 0 {
		t.Fatalf("Arm/Cancel cycle allocated %v times, want 0", n)
	}
}

func TestWatchdogPanicsWithWaiterDump(t *testing.T) {
	wd := watchdogTrip(t, func(p *Proc, mb *Mailbox[int]) { mb.Recv(p) })
	if !strings.Contains(wd.Culprit, "rank3") || !strings.Contains(wd.Culprit, "ocean.halo") {
		t.Fatalf("culprit %q missing proc or facility name", wd.Culprit)
	}
	if len(wd.Waiters) != 1 || wd.Waiters[0].Proc != "rank3" || wd.Waiters[0].On != "ocean.halo" {
		t.Fatalf("waiter dump = %+v", wd.Waiters)
	}
	if !strings.Contains(wd.Error(), "rank3 waits on ocean.halo") {
		t.Fatalf("Error() = %q", wd.Error())
	}

	// A park inside Await trips with the name its process gives it; the
	// same process parked outside Await, after an Await that ended,
	// trips with the default.
	const named = "rank 3 haloWait(tag=7)"
	recv := func(p *Proc, mb *Mailbox[int]) func() bool {
		parked := false
		return func() bool {
			if parked {
				p.ParkEnd()
			}
			_, ok := mb.RecvStep(p)
			parked = !ok
			return ok
		}
	}
	wd = watchdogTrip(t, func(p *Proc, mb *Mailbox[int]) {
		p.NameWaits(func() string { return named })
		p.Await(recv(p, mb))
	})
	if wd.Culprit != named || len(wd.Waiters) != 1 || wd.Waiters[0].Proc != "rank3" {
		t.Fatalf("inside Await: culprit %q, waiters %+v, want %q and rank3", wd.Culprit, wd.Waiters, named)
	}
	wd = watchdogTrip(t, func(p *Proc, mb *Mailbox[int]) {
		p.NameWaits(func() string { return named })
		p.Engine().Schedule(units.Microsecond, func() { mb.Send(1) })
		p.Await(recv(p, mb))
		mb.Recv(p)
	})
	if wd.Culprit != "rank3 (parked on ocean.halo)" {
		t.Fatalf("outside Await: culprit %q, want the default", wd.Culprit)
	}
}

// watchdogTrip runs body as process rank3, with a mailbox, under a 1 ms
// watchdog and returns the trip the run ends in.
func watchdogTrip(t *testing.T, body func(p *Proc, mb *Mailbox[int])) (wd *WatchdogError) {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	e.SetWatchdog(units.Millisecond)
	mb := NewMailbox[int](e, "ocean.halo")
	e.Spawn("rank3", func(p *Proc) { body(p, mb) })
	defer func() {
		r := recover()
		var ok bool
		if wd, ok = r.(*WatchdogError); !ok {
			t.Fatalf("panic payload = %T (%v), want *WatchdogError", r, r)
		}
	}()
	e.Run()
	return nil
}

func TestWatchdogDisarmedOnWake(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(units.Millisecond)
	mb := NewMailbox[int](e, "box")
	e.Spawn("rx", func(p *Proc) { mb.Recv(p) })
	e.Schedule(units.Microsecond, func() { mb.Send(1) })
	e.Run()
	if e.Now() != units.Microsecond {
		t.Fatalf("Now = %v: watchdog timer outlived a satisfied wait", e.Now())
	}
}

var errDiverged = errors.New("solver diverged")

func divergingSolver() { panic(errDiverged) }

func TestProcPanicRethrownInEngineContext(t *testing.T) {
	e := NewEngine()
	boom := errDiverged
	e.Spawn("rank0", func(p *Proc) {
		p.Delay(units.Microsecond)
		divergingSolver()
	})
	defer e.Close()
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("panic payload = %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "rank0" {
			t.Fatalf("Proc = %q, want rank0", pp.Proc)
		}
		if !errors.Is(pp, boom) {
			t.Fatalf("ProcPanic does not unwrap to the original error")
		}
		if !strings.Contains(string(pp.Stack), "des.divergingSolver") {
			t.Fatalf("stack does not name the panic site:\n%s", pp.Stack)
		}
	}()
	e.Run()
}

func TestEngineFailStopsRun(t *testing.T) {
	e := NewEngine()
	errStop := errors.New("peer unreachable")
	ran := false
	e.Schedule(units.Microsecond, func() { e.Fail(errStop) })
	e.Schedule(2*units.Microsecond, func() { ran = true })
	e.Run()
	if ran {
		t.Fatalf("run loop continued past Fail")
	}
	if e.Step() || ran {
		t.Fatalf("Step dispatched after Fail")
	}
	if !errors.Is(e.Err(), errStop) {
		t.Fatalf("Err = %v, want %v", e.Err(), errStop)
	}
	e.Fail(errors.New("second"))
	if !errors.Is(e.Err(), errStop) {
		t.Fatalf("Fail overwrote the first error")
	}
}
