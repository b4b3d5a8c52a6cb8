package des

import (
	"fmt"
	"math/rand"
	"testing"

	"hyades/internal/units"
)

// Script ops of the step-function differential test.
const (
	sDelay = iota // Delay(d)
	sLock         // Acquire, hold for d, Release
	sRecv         // Recv
	sWait         // Wait on a fresh snapshot
	sKinds
)

type sop struct {
	kind int
	d    units.Time
}

// scripted runs one script of blocking calls against a shared mailbox,
// semaphore and signal, either as process code or as step functions,
// and notes the clock and Events() after every call.
type scripted struct {
	p     *Proc
	mb    *Mailbox[int]
	sem   *Semaphore
	sig   *Signal
	notes []string

	ops     []sop
	pc, sub int
	got     int
}

func (w *scripted) note(what string) {
	w.notes = append(w.notes, fmt.Sprintf("%s@%d#%d got=%d", what, w.p.Now(), w.p.eng.Events(), w.got))
}

// run is the process form of op o.
func (w *scripted) run(o sop) {
	p := w.p
	switch o.kind {
	case sDelay:
		p.Delay(o.d)
	case sLock:
		w.sem.Acquire(p)
		p.Delay(o.d)
		w.sem.Release()
	case sRecv:
		w.got = w.mb.Recv(p)
	case sWait:
		w.sig.Wait(p, w.sig.Seq())
	}
}

// Where a step-form op resumes (scripted.sub).
const (
	stStart    = iota
	stDone     // woken from a StepDelay: the op is over
	stParked   // woken from a park: end it, the op is over
	stLockTry  // try the semaphore
	stLockPark // woken for the semaphore
	stLockHeld // the hold is over
	stRecv     // try the mailbox
	stRecvPark // woken for the mailbox
)

// stepOp is the step form of op o: true when it is over, false when it
// has begun a block.
func (w *scripted) stepOp(o sop) bool {
	p := w.p
	for {
		switch w.sub {
		case stStart:
			switch o.kind {
			case sDelay:
				w.sub = stDone
				return p.StepDelay(o.d)
			case sLock:
				w.sub = stLockTry
			case sRecv:
				w.sub = stRecv
			case sWait:
				w.sub = stParked
				return w.sig.WaitStep(p, w.sig.Seq())
			}
		case stDone:
			return true
		case stParked:
			p.ParkEnd()
			return true
		case stLockTry:
			if !w.sem.AcquireStep(p) {
				w.sub = stLockPark
				return false
			}
			w.sub = stLockHeld
			if !p.StepDelay(o.d) {
				return false
			}
		case stLockPark:
			p.ParkEnd()
			w.sub = stLockTry
		case stLockHeld:
			w.sem.Release()
			return true
		case stRecv:
			v, ok := w.mb.RecvStep(p)
			if !ok {
				w.sub = stRecvPark
				return false
			}
			w.got = v
			return true
		case stRecvPark:
			p.ParkEnd()
			w.sub = stRecv
		}
	}
}

// step runs the script's remaining ops as one step function.
func (w *scripted) step() bool {
	for w.pc < len(w.ops) {
		if !w.stepOp(w.ops[w.pc]) {
			return false
		}
		w.note(fmt.Sprint("op", w.pc))
		w.pc, w.sub = w.pc+1, stStart
	}
	return true
}

// stepWorld runs seed's script, partners and faults with the subject in
// process form or as step functions (in Await calls of seed-drawn
// lengths), and returns its notes and the engine's accounting.
func stepWorld(seed int64, steps bool) (notes []string, ctr Counters, events uint64, now units.Time, blocked int) {
	rng := rand.New(rand.NewSource(seed))
	dur := func() units.Time { return units.Time(rng.Intn(4)) * us }
	e := NewEngine()
	defer e.Close()
	if seed%3 == 0 {
		e.SetWatchdog(5 * us)
	}
	w := &scripted{mb: NewMailbox[int](e, "mb"), sem: NewSemaphore(e, "sem", 1), sig: NewSignal(e, "sig")}
	script := make([]sop, 12+rng.Intn(12))
	for i := range script {
		script[i] = sop{rng.Intn(sKinds), dur()}
	}
	chunks := make([]int, len(script))
	for i := range chunks {
		chunks[i] = 1 + rng.Intn(4)
	}
	// Partners: a sender, a lock holder, a broadcaster, each on its own
	// pre-drawn timetable.
	partner := func(name string, body func(p *Proc, i int)) {
		gaps := make([]units.Time, 8)
		for i := range gaps {
			gaps[i] = dur()
		}
		e.Spawn(name, func(p *Proc) {
			for i, g := range gaps {
				p.Delay(g)
				body(p, i)
			}
		})
	}
	partner("sender", func(p *Proc, i int) { w.mb.Send(i + 1) })
	partner("locker", func(p *Proc, i int) { w.sem.Acquire(p); p.Delay(us); w.sem.Release() })
	partner("broadcaster", func(p *Proc, i int) { w.sig.Broadcast() })
	w.p = e.Spawn("subject", func(p *Proc) {
		defer func() {
			if intr, ok := recover().(*Interrupt); ok {
				w.note("interrupted " + intr.Cause.Error())
			}
		}()
		if !steps {
			for i, o := range script {
				w.run(o)
				w.note(fmt.Sprint("op", i))
			}
			return
		}
		fn := w.step
		for at, k := 0, 0; at < len(script); at, k = at+chunks[k], k+1 {
			w.ops, w.pc, w.sub = script[:min(at+chunks[k], len(script))], at, stStart
			p.Await(fn)
		}
	})
	switch seed % 4 {
	case 1:
		at := dur() + dur() + dur()
		e.Schedule(at, func() { w.p.Interrupt(fmt.Errorf("at %v", at)) })
	case 2:
		e.Schedule(dur()+dur()+dur(), func() { w.p.Kill() })
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				w.notes = append(w.notes, fmt.Sprint("run panicked: ", r))
			}
		}()
		e.Run()
	}()
	return w.notes, e.Counters(), e.Events(), e.Now(), e.Blocked()
}

// TestAwaitMatchesProcessForm runs random scripts of every blocking call
// against contending partners, interrupts, kills and the watchdog, once
// as process code and once as step functions, and requires the same
// notes (clock and Events() after every call), the same final clock,
// event count, dispatched events and blocked processes — and the wakes
// the step form saves switches on to be counted as continuations.
func TestAwaitMatchesProcessForm(t *testing.T) {
	saved := uint64(0)
	for seed := int64(0); seed < 400; seed++ {
		pn, pc, pe, pt, pb := stepWorld(seed, false)
		sn, sc, se, st, sb := stepWorld(seed, true)
		if fmt.Sprint(pn) != fmt.Sprint(sn) || pe != se || pt != st || pb != sb || pc.Dispatched != sc.Dispatched {
			t.Fatalf("seed %d: process form %v events=%d now=%v blocked=%d %+v\nstep form    %v events=%d now=%v blocked=%d %+v",
				seed, pn, pe, pt, pb, pc, sn, se, st, sb, sc)
		}
		if sc.Resumes+sc.Continued != pc.Resumes || pc.Continued != 0 {
			t.Fatalf("seed %d: step form %d resumes + %d continued, process form %d resumes", seed, sc.Resumes, sc.Continued, pc.Resumes)
		}
		saved += sc.Continued
	}
	if saved == 0 {
		t.Fatal("no wake ran a step function")
	}
}

// TestAwaitSwitchesInOnce: a chain of blocking delays run as one step
// function costs one switch into the process, at its end.
func TestAwaitSwitchesInOnce(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	heartbeat(e, 20*us)
	left := 10
	e.Spawn("p", func(p *Proc) {
		p.Await(func() bool {
			for ; left > 0; left-- {
				if !p.StepDelay(us) {
					left--
					return false
				}
			}
			return true
		})
		if p.Now() != 10*us {
			t.Errorf("Await returned at %v, want 10us", p.Now())
		}
	})
	e.Run()
	if c := e.Counters(); c.Resumes != 2 || c.Continued != 9 {
		t.Fatalf("%d resumes and %d continued, want the spawn and the end, and nine steps", c.Resumes, c.Continued)
	}
}
