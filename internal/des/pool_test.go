package des

import (
	"fmt"
	"testing"

	"hyades/internal/units"
)

// Submitting a phase never blocks the dispatcher.  (With the task
// channel and workers this pool used to have, the second of sixteen
// same-instant Execs on a one-worker pool stalled the whole simulation
// until the first phase finished.)  Every phase then runs exactly once,
// at its completion event, and a process killed mid-Exec unwinds at
// that completion wake, the phase having run.
func TestExecSubmissionNeverBlocks(t *testing.T) {
	const n = 16
	e := NewEngine()
	defer e.Close()
	pool := NewPool(1)
	defer pool.Close()
	e.SetPool(pool)

	var ran [n]int
	returned, unwoundAt := 0, units.Never
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = e.Spawn(fmt.Sprintf("rank%d", i), func(p *Proc) {
			if i == 0 {
				defer func() { unwoundAt = p.Now() }()
			}
			p.Exec(10*us, func() {
				if p.Now() != 10*us {
					t.Errorf("phase %d ran at %v, want its completion at 10us", i, p.Now())
				}
				ran[i]++
			})
			returned++
		})
	}
	e.Schedule(us, func() {
		// All sixteen submissions are behind us and nothing has run.
		if got := e.Blocked(); got != n {
			t.Errorf("%d of %d processes are inside Exec at 1us", got, n)
		}
		if ran != [n]int{} {
			t.Errorf("phases ran before their completion: %v", ran)
		}
		procs[0].Kill() // phase still pending: deferred to the completion wake
	})
	e.Run()

	for i, got := range ran {
		if got != 1 {
			t.Errorf("phase %d ran %d times", i, got)
		}
	}
	if returned != n-1 || unwoundAt != 10*us {
		t.Errorf("%d Execs returned (want %d: one was killed), victim unwound at %v (want 10us)", returned, n-1, unwoundAt)
	}
	if e.Now() != 10*us || e.Blocked() != 0 {
		t.Errorf("run ended at %v with %d blocked", e.Now(), e.Blocked())
	}
}
