package des

import (
	"errors"
	"strings"
	"testing"

	"hyades/internal/units"
)

func TestTimerCancelDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(units.Hour, func() { fired = true })
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
	tm := e.After(3*units.Microsecond, func() { at = e.Now() })
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
	// Cancelling an event from the middle of the heap must not disturb
	// the ordering of the remaining events.
	e := NewEngine()
	var got []int
	e.Schedule(1*units.Microsecond, func() { got = append(got, 1) })
	tm := e.After(2*units.Microsecond, func() { got = append(got, 2) })
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

func TestRecvDeadlineTimesOut(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "box")
	var ok bool
	var at units.Time
	e.Spawn("rx", func(p *Proc) {
		_, ok = mb.RecvDeadline(p, 5*units.Microsecond)
		at = p.Now()
	})
	e.Run()
	if ok {
		t.Fatalf("RecvDeadline succeeded on an empty mailbox")
	}
	if at != 5*units.Microsecond {
		t.Fatalf("timed out at %v, want 5us", at)
	}
	if e.Blocked() != 0 {
		t.Fatalf("process still blocked after deadline")
	}
}

func TestRecvDeadlineDelivers(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "box")
	var got int
	var ok bool
	e.Spawn("rx", func(p *Proc) { got, ok = mb.RecvDeadline(p, 10*units.Microsecond) })
	e.Schedule(2*units.Microsecond, func() { mb.Send(41) })
	e.Run()
	if !ok || got != 41 {
		t.Fatalf("RecvDeadline = (%d,%v), want (41,true)", got, ok)
	}
	// The deadline timer must have been cancelled outright: the clock
	// stops at the delivery, not at the 10us expiry.
	if e.Now() != 2*units.Microsecond {
		t.Fatalf("Now = %v, want 2us", e.Now())
	}
}

func TestSignalWaitDeadline(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "sig")
	var timedOut, delivered bool
	e.Spawn("w1", func(p *Proc) {
		timedOut = !sig.WaitDeadline(p, sig.Seq(), 3*units.Microsecond)
	})
	e.Run()
	if !timedOut {
		t.Fatalf("WaitDeadline did not time out without a broadcast")
	}
	e.Spawn("w2", func(p *Proc) {
		delivered = sig.WaitDeadline(p, sig.Seq(), units.Hour)
	})
	e.Schedule(units.Microsecond, func() { sig.Broadcast() })
	e.Run()
	if !delivered {
		t.Fatalf("WaitDeadline missed the broadcast")
	}
	if e.Now() >= units.Hour {
		t.Fatalf("satisfied WaitDeadline dragged the clock to %v", e.Now())
	}
}

func TestWatchdogPanicsWithWaiterDump(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(units.Millisecond)
	mb := NewMailbox[int](e, "ocean.halo")
	e.Spawn("rank3", func(p *Proc) { mb.Recv(p) })
	defer e.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("watchdog did not trip")
		}
		wd, ok := r.(*WatchdogError)
		if !ok {
			t.Fatalf("panic payload = %T, want *WatchdogError", r)
		}
		if !strings.Contains(wd.Culprit, "rank3") || !strings.Contains(wd.Culprit, "ocean.halo") {
			t.Fatalf("culprit %q missing proc or facility name", wd.Culprit)
		}
		if len(wd.Waiters) != 1 || wd.Waiters[0].Proc != "rank3" || wd.Waiters[0].On != "ocean.halo" {
			t.Fatalf("waiter dump = %+v", wd.Waiters)
		}
		if !strings.Contains(wd.Error(), "rank3 waits on ocean.halo") {
			t.Fatalf("Error() = %q", wd.Error())
		}
	}()
	e.Run()
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
	if !errors.Is(e.Err(), errStop) {
		t.Fatalf("Err = %v, want %v", e.Err(), errStop)
	}
	e.Fail(errors.New("second"))
	if !errors.Is(e.Err(), errStop) {
		t.Fatalf("Fail overwrote the first error")
	}
}
