package des

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hyades/internal/units"
)

const us = units.Microsecond

// heartbeat keeps an event due every microsecond up to `until`, so a
// process Delay in that span cannot take the inline fast path and every
// park ends in a real switch.
func heartbeat(e *Engine, until units.Time) {
	var tick func()
	tick = func() {
		if e.Now() < until {
			e.Schedule(us, tick)
		}
	}
	e.Schedule(0, tick)
}

func TestKill(t *testing.T) {
	cases := []struct {
		name string
		pool bool
		body func(p *Proc, mb *Mailbox[int])
		// goneAt is when the victim must have unwound: the kill instant,
		// or the completion wake of the phase a mid-Exec kill waits for.
		goneAt units.Time
	}{
		{"parked", false, func(p *Proc, mb *Mailbox[int]) { mb.Recv(p) }, 5 * us},
		{"delayed", false, func(p *Proc, mb *Mailbox[int]) { p.Delay(20 * us) }, 5 * us},
		{"mid-Exec", true, func(p *Proc, mb *Mailbox[int]) { p.Exec(20*us, func() {}) }, 20 * us},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Close()
			if tc.pool {
				pool := NewPool(1)
				defer pool.Close()
				e.SetPool(pool)
			}
			heartbeat(e, 30*us)
			mb := NewMailbox[int](e, "box")
			unwoundAt, resumed := units.Never, false
			victim := e.Spawn("victim", func(p *Proc) {
				defer func() { unwoundAt = p.Now() }()
				tc.body(p, mb)
				resumed = true
			})
			e.Schedule(5*us, func() {
				victim.Kill()
				victim.Kill() // killing a dead or dying process is a no-op
			})
			e.Run()
			if resumed {
				t.Fatal("killed process ran past its blocking call")
			}
			if unwoundAt != tc.goneAt {
				t.Fatalf("victim unwound at %v, want %v", unwoundAt, tc.goneAt)
			}
			if len(mb.waiters) != 0 || len(e.procs) != 0 || e.Blocked() != 0 {
				t.Fatalf("kill left residue: %d waiters, %d procs, %d blocked",
					len(mb.waiters), len(e.procs), e.Blocked())
			}
			if e.Now() != 30*us {
				t.Fatalf("run ended at %v, want the last heartbeat at 30us", e.Now())
			}
		})
	}
}

func TestInterrupt(t *testing.T) {
	cause := errors.New("node 3 lost")
	cases := []struct {
		name string
		body func(p *Proc, mb *Mailbox[int])
		// send is when a normal wake (a mailbox item) is due, 0 for none.
		send units.Time
		// at is when the interrupt must surface in the process.
		at units.Time
	}{
		// A parked process is detached and woken at the interrupt instant.
		{"park", func(p *Proc, mb *Mailbox[int]) { mb.Recv(p) }, 0, 5 * us},
		// A plain Delay has no facility to leave: it runs to its own wake.
		{"Delay", func(p *Proc, mb *Mailbox[int]) { p.Delay(20 * us) }, 0, 20 * us},
		// The normal wake, queued first on the same timestamp, has already
		// taken the process off the waiter list; the interrupt rides it.
		{"same timestamp as a wake", func(p *Proc, mb *Mailbox[int]) { mb.Recv(p) }, 5 * us, 5 * us},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Close()
			heartbeat(e, 30*us)
			mb := NewMailbox[int](e, "box")
			var got *Interrupt
			gotAt, resumed := units.Never, false
			victim := e.Spawn("victim", func(p *Proc) {
				defer func() {
					intr, ok := recover().(*Interrupt)
					if !ok {
						return
					}
					got, gotAt = intr, p.Now()
					p.Delay(us) // an interrupted process keeps running
					resumed = true
				}()
				tc.body(p, mb)
			})
			if tc.send > 0 {
				e.Schedule(tc.send, func() { mb.Send(7) })
			}
			e.Schedule(5*us, func() {
				victim.Interrupt(cause)
				victim.Interrupt(errors.New("second")) // one pending interrupt at a time
			})
			e.Run()
			if got == nil || got.Proc != "victim" || !errors.Is(got, cause) {
				t.Fatalf("interrupt = %+v, want cause %v in victim", got, cause)
			}
			if gotAt != tc.at {
				t.Fatalf("interrupt surfaced at %v, want %v", gotAt, tc.at)
			}
			if !resumed || len(mb.waiters) != 0 || len(e.procs) != 0 {
				t.Fatalf("resumed=%v, %d waiters, %d procs left", resumed, len(mb.waiters), len(e.procs))
			}
		})
	}
}

// A Kill issued from another process's context stops the victim's
// coroutine from inside the killer's: a nested switch, which the runtime
// allows.  The killer carries on in the same activation.
func TestKillFromProcessContext(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[int](e, "box")
	var log []string
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { log = append(log, "victim unwound") }()
		mb.Recv(p)
		log = append(log, "victim resumed")
	})
	e.Spawn("killer", func(p *Proc) {
		p.Delay(3 * us)
		mb.Send(1) // the victim's wake is now in flight, and must become a no-op
		victim.Kill()
		log = append(log, "killer continues")
		p.Delay(us)
		log = append(log, "killer done")
	})
	e.Run()
	want := []string{"victim unwound", "killer continues", "killer done"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if e.Now() != 4*us || len(e.procs) != 0 {
		t.Fatalf("Now = %v, %d procs left", e.Now(), len(e.procs))
	}
}

// A node-crash event kills every rank of the node, including the one
// that woke last.  Events run on the dispatcher only, so no process is
// ever running the event that kills it and the case needs no special
// handling: the run simply carries on.
func TestCrashEventKillsLastWokenProcess(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	heartbeat(e, 20*us)
	unwound, survivorTicks := 0, 0
	rank := func(p *Proc) {
		defer func() { unwound++ }()
		for {
			p.Delay(2 * us)
		}
	}
	e.Spawn("survivor", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Delay(2 * us)
			survivorTicks++
		}
	})
	a, b := e.Spawn("rank0", rank), e.Spawn("rank1", rank)
	// rank1 is the process that woke last before the crash at 5us.
	e.Schedule(5*us, func() { a.Kill(); b.Kill() })
	e.Run()
	if unwound != 2 || survivorTicks != 10 || e.Now() != 20*us || len(e.procs) != 0 {
		t.Fatalf("unwound=%d survivorTicks=%d Now=%v procs=%d",
			unwound, survivorTicks, e.Now(), len(e.procs))
	}
}

// A blocking call made by a deferred function of a killed process
// re-raises the stop: the process neither parks again, nor advances the
// clock, nor stays on a waiter list where it would swallow an item.
func TestBlockingCallWhileUnwinding(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[int](e, "box")
	sem := NewSemaphore(e, "sem", 0)
	reached := 0
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { reached++; p.Exec(us, func() { t.Error("Exec body ran while unwinding") }) }()
		defer func() { reached++; mb.RecvDeadline(p, us) }()
		defer func() { reached++; mb.Recv(p) }()
		defer func() { reached++; p.Delay(us) }()
		sem.Acquire(p)
	})
	got := 0
	e.Spawn("receiver", func(p *Proc) {
		p.Delay(us + us/2) // queue up behind wherever the victim would be
		got = mb.Recv(p)
	})
	e.Schedule(us, func() { victim.Kill() })
	e.Schedule(2*us, func() { mb.Send(42) })
	e.Run()
	if reached != 4 {
		t.Fatalf("%d of 4 deferred calls ran", reached)
	}
	if got != 42 {
		t.Fatalf("receiver got %d: the dead process kept its place on the waiter list", got)
	}
	if e.Now() != 2*us || e.Pending() != 0 || len(e.procs) != 0 {
		t.Fatalf("Now=%v pending=%d procs=%d", e.Now(), e.Pending(), len(e.procs))
	}
}

// Close stops every coroutine, whatever state it is in; the goroutine
// count is the witness, since a coroutine is a goroutine to the runtime.
func TestCloseReleasesEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	pool := NewPool(2)
	e.SetPool(pool)
	mb := NewMailbox[int](e, "box")
	unwound := 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			mb.Recv(p)
		})
	}
	e.Spawn("delayed", func(p *Proc) {
		defer func() { unwound++ }()
		p.Delay(units.Second)
	})
	computing := e.Spawn("computing", func(p *Proc) {
		defer func() { unwound++ }()
		p.Exec(units.Second, func() { t.Error("a phase pending at Close ran") })
	})
	e.RunUntil(us)
	e.Spawn("never started", func(p *Proc) { t.Error("a process first activated after Close ran") })
	if got := runtime.NumGoroutine(); got < base+9 {
		t.Fatalf("%d goroutines with nine processes alive, baseline %d", got, base)
	}
	// The compute phase is still pending: its completion event lies
	// beyond the run.
	if computing.execFn == nil {
		t.Fatal("no phase pending at Close")
	}
	e.Close()
	pool.Close()
	if unwound != 8 {
		t.Fatalf("%d of 8 started processes unwound", unwound)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Close, baseline %d", got, base)
	}
}

// Step runs one event and, when that event wakes a process, the process
// up to its next block — never a second event.
func TestStepRunsOneEventAndOneResume(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox[int](e, "box")
	var log []string
	e.Spawn("rx", func(p *Proc) {
		log = append(log, "rx started")
		mb.Recv(p)
		log = append(log, "rx got item")
		mb.Recv(p)
	})
	e.Schedule(us, func() { log = append(log, "send"); mb.Send(1) })
	e.Schedule(us, func() { log = append(log, "other event") })
	steps := []struct {
		log    string
		events uint64 // Events() afterwards
	}{
		{"[rx started]", 3},                              // the spawn wake: rx runs to its first Recv
		{"[rx started send]", 4},                         // the send event schedules rx's wake, no resume
		{"[rx started send other event]", 4},             // queued before that wake
		{"[rx started send other event rx got item]", 4}, // the wake: rx runs to its second Recv
	}
	for i, want := range steps {
		if !e.Step() {
			t.Fatalf("step %d: queue empty", i)
		}
		if fmt.Sprint(log) != want.log || e.Events() != want.events {
			t.Fatalf("step %d: log %v events %d, want %s events %d", i, log, e.Events(), want.log, want.events)
		}
	}
	if e.Step() {
		t.Fatal("Step with an empty queue returned true")
	}
	if e.Blocked() != 1 {
		t.Fatalf("Blocked = %d, want rx parked", e.Blocked())
	}
}

// The virtual schedule does not depend on when compute phases execute:
// inline at submission, or at completion under a pool of any size.
func TestPingPongIdenticalAcrossWorkerCounts(t *testing.T) {
	type outcome struct {
		events uint64
		now    units.Time
		sum    int
	}
	run := func(workers int) outcome {
		e := NewEngine()
		defer e.Close()
		if workers >= 0 {
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			pool := NewPool(workers)
			defer pool.Close()
			e.SetPool(pool)
		}
		const procs = 3
		var ring [procs]*Mailbox[int]
		for i := range ring {
			ring[i] = NewMailbox[int](e, fmt.Sprintf("ring%d", i))
		}
		sum := 0
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				local := 0
				for round := 0; round < 50; round++ {
					v := ring[i].Recv(p)
					p.Exec(units.Time(i+1)*us, func() { local += v })
					p.Delay(us / 2)
					if i == procs-1 && round == 49 {
						break
					}
					ring[(i+1)%procs].Send(v + 1)
				}
				sum += local
			})
		}
		ring[0].Send(1)
		e.Run()
		if e.Blocked() != 0 {
			t.Fatalf("workers %d: %d processes left blocked", workers, e.Blocked())
		}
		return outcome{e.Events(), e.Now(), sum}
	}
	want := run(-1)
	if want.sum == 0 || want.now == 0 {
		t.Fatalf("inline run did no work: %+v", want)
	}
	for _, workers := range []int{1, 0} {
		if got := run(workers); got != want {
			t.Fatalf("workers %d: %+v, inline %+v", workers, got, want)
		}
	}
}
