package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/units"
)

func TestBuildPublishedMachine(t *testing.T) {
	cl, err := New(DefaultConfig(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Processors() != 32 {
		t.Fatalf("processors = %d", cl.Processors())
	}
	if len(cl.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(cl.Nodes))
	}
	for i, n := range cl.Nodes {
		if n.NIU == nil || n.NIU.Endpoint() != i {
			t.Fatalf("node %d NIU wiring", i)
		}
	}
	if cl.Fabric.Config().Endpoints != 16 {
		t.Fatal("Arctic endpoints")
	}
}

func TestStartRunsAllWorkers(t *testing.T) {
	cl, err := New(DefaultConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	seen := make([]bool, 8)
	nodeOf := make([]int, 8)
	cpuOf := make([]int, 8)
	cl.Start(func(w *Worker) {
		seen[w.Rank] = true
		nodeOf[w.Rank] = w.Node.ID
		cpuOf[w.Rank] = w.CPU
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if !seen[r] {
			t.Fatalf("rank %d never ran", r)
		}
		if nodeOf[r] != r/2 || cpuOf[r] != r%2 {
			t.Fatalf("rank %d placed on node %d cpu %d", r, nodeOf[r], cpuOf[r])
		}
	}
}

func TestWorkersCommunicateViaNIU(t *testing.T) {
	cl, err := New(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got uint32
	cl.Start(func(w *Worker) {
		if w.Rank == 0 {
			w.Node.NIU.PIOSend(w.Proc, 1, 5, []uint32{99, 1}, arctic.Low)
		} else {
			m := w.Node.NIU.PIORecv(w.Proc, arctic.Low)
			got = m.Words[0]
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("payload = %d", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	cl, err := New(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Start(func(w *Worker) {
		w.Node.NIU.PIORecv(w.Proc, arctic.Low) // nobody sends
	})
	if err := cl.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestWatchdogTurnsHangIntoDiagnosis(t *testing.T) {
	const limit = 200 * units.Microsecond
	cl, err := New(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Eng.SetWatchdog(limit)
	cl.Start(func(w *Worker) {
		if w.Rank == 0 {
			// Rank 1 never sends; rank 0 parks far past the limit while
			// rank 1 keeps the clock moving with delays.
			w.Node.NIU.PIORecv(w.Proc, arctic.Low)
			return
		}
		for i := 0; i < 10; i++ {
			w.Proc.Delay(100 * units.Microsecond)
		}
	})
	err = cl.Run()
	if err == nil {
		t.Fatal("watchdog did not trip")
	}
	var wd *des.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("error is not a watchdog diagnosis: %v", err)
	}
	if wd.Limit != limit {
		t.Errorf("reported limit %v, want %v", wd.Limit, limit)
	}
	if !strings.Contains(err.Error(), "rank0") {
		t.Errorf("culprit dump names no rank: %v", err)
	}
	if len(wd.Waiters) == 0 {
		t.Errorf("no parked-waiter set attached: %+v", wd)
	}
}

// TestScheduleIntoThePastIsAnError: a negative delay ends the run in a
// typed error, never a silent clamp or a crash — from an event as the
// *des.PastError itself, from a rank wrapped in a *des.ProcPanic that
// names it.
func TestScheduleIntoThePastIsAnError(t *testing.T) {
	for _, fromRank := range []bool{false, true} {
		cl, err := New(DefaultConfig(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		cl.Start(func(w *Worker) {
			if w.Rank != 1 {
				return
			}
			w.Proc.Delay(units.Microsecond)
			if fromRank {
				w.Proc.Delay(-units.Nanosecond)
				return
			}
			cl.Eng.Schedule(units.Microsecond, func() { cl.Eng.Schedule(-units.Nanosecond, func() {}) })
		})
		err = cl.Run()
		cl.Close()
		var pe *des.PastError
		if !errors.As(err, &pe) || pe.Delay != -units.Nanosecond {
			t.Fatalf("fromRank=%v: err = %v, want a *des.PastError of -1ns", fromRank, err)
		}
		var pp *des.ProcPanic
		if named := errors.As(err, &pp) && pp.Proc == "rank1"; named != fromRank {
			t.Errorf("fromRank=%v: err = %v; a rank's failure must name it, an event's must not", fromRank, err)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := New(DefaultConfig(0, 1)); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := New(DefaultConfig(2, 0)); err == nil {
		t.Fatal("0 ppn accepted")
	}
	if _, err := New(DefaultConfig(2, 9)); err == nil {
		t.Fatal("9 ppn accepted")
	}
	// A fault rate is a probability.  NaN and negative rates used to run
	// fault-free without a word (Enabled tests > 0); rate 1 drops or
	// corrupts every packet and stays valid.
	for _, fc := range []fault.Config{
		{DropRate: -0.5}, {DropRate: 2}, {DropRate: math.NaN()},
		{CorruptRate: -1e-9}, {CorruptRate: 1.5}, {CorruptRate: math.NaN()},
	} {
		cfg := DefaultConfig(2, 1)
		cfg.Fault = fc
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "not a probability") {
			t.Errorf("fault config %+v: err = %v, want one refusing the rate", fc, err)
		}
	}
	for _, fc := range []fault.Config{{DropRate: 1}, {CorruptRate: 1}, {DropRate: 0.5, CorruptRate: 0}} {
		cfg := DefaultConfig(2, 1)
		cfg.Fault = fc
		cl, err := New(cfg)
		if err != nil {
			t.Errorf("fault config %+v: %v", fc, err)
			continue
		}
		cl.Close()
	}
	// A link outage that names no link of the machine is refused too.
	cfg := DefaultConfig(8, 1)
	cfg.Fault.Outages = []fault.Outage{{Link: "inject(99)"}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `"inject(99)"`) {
		t.Errorf("outage on inject(99) of an 8-node machine: err = %v", err)
	}
}
