package des

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hyades/internal/units"
)

// Submitting a phase never blocks the dispatcher, however few workers
// there are and whatever they are doing.  (With the task channel this
// pool used to have, the second of these sixteen same-instant Execs
// stalled the whole simulation until the first phase finished — here
// forever, since the phases wait for an event that could never run.)
// Every phase then runs exactly once, on the dispatcher or on the
// worker, and a process killed mid-Exec with its phase still unclaimed
// unwinds at the completion wake, the phase having run.
func TestExecSubmissionNeverBlocks(t *testing.T) {
	const n = 16
	e := NewEngine()
	defer e.Close()
	pool := NewPool(1)
	defer pool.Close()
	e.SetPool(pool)

	gate := make(chan struct{})
	var ran [n]atomic.Int32
	var running, overlapped, finished atomic.Int32
	returned, unwoundAt := 0, units.Never
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = e.Spawn(fmt.Sprintf("rank%d", i), func(p *Proc) {
			if i == 0 {
				defer func() { unwoundAt = p.Now() }()
			}
			p.Exec(10*us, func() {
				<-gate
				if running.Add(1) > 1 {
					overlapped.Add(1)
				}
				// Long against recruitAfter, so the dispatcher's first
				// phase is the evidence that wakes the worker; sleeping,
				// so the worker gets a core even on a one-core host.
				time.Sleep(time.Millisecond)
				ran[i].Add(1)
				running.Add(-1)
				finished.Add(1)
			})
			returned++
		})
	}
	e.Schedule(us, func() {
		// All sixteen submissions are behind us and nothing has run.
		if got := e.Blocked(); got != n {
			t.Errorf("%d of %d processes are inside Exec at 1us", got, n)
		}
		if finished.Load() != 0 {
			t.Error("a gated phase finished before the gate opened")
		}
		procs[0].Kill() // phase still pending: deferred to the completion wake
		close(gate)
	})
	e.Run()

	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("phase %d ran %d times", i, got)
		}
	}
	if returned != n-1 || unwoundAt != 10*us {
		t.Errorf("%d Execs returned (want %d: one was killed), victim unwound at %v (want 10us)", returned, n-1, unwoundAt)
	}
	if overlapped.Load() == 0 {
		t.Error("no phase ever overlapped another: the recruited worker claimed nothing")
	}
	if e.Now() != 10*us || e.Blocked() != 0 {
		t.Errorf("run ended at %v with %d blocked", e.Now(), e.Blocked())
	}
}
