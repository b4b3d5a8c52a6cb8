package mpistart

import (
	"bytes"
	"math"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/units"
)

// run spawns an n-node single-process-per-node machine.
func run(t *testing.T, n int, body func(c *Comm)) units.Time {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Start(func(w *cluster.Worker) {
		c, err := New(w, n)
		if err != nil {
			t.Error(err)
			return
		}
		body(c)
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return cl.Eng.Now()
}

func TestSendRecvEagerAndBulk(t *testing.T) {
	for _, size := range []int{1, 10, eagerLimit, eagerLimit + 1, 5000} {
		size := size
		run(t, 2, func(c *Comm) {
			msg := make([]byte, size)
			for i := range msg {
				msg[i] = byte(i*3 + size)
			}
			if c.Rank() == 0 {
				c.Send(1, 7, msg)
			} else {
				got := c.Recv(0, 7)
				if !bytes.Equal(got, msg) {
					t.Errorf("size %d: payload corrupted", size)
				}
			}
		})
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1})
			c.Send(1, 2, []byte{2})
		} else {
			// Receive in the opposite order: the stash must hold tag 1.
			if got := c.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 = %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 = %v", got)
			}
		}
	})
}

func TestAllreduceValueAllSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		n := n
		want := float64(n * (n + 1) / 2)
		run(t, n, func(c *Comm) {
			got := c.Allreduce(float64(c.Rank()+1), 10)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d rank %d: allreduce = %g, want %g", n, c.Rank(), got, want)
			}
		})
	}
}

func TestRejectsMixMode(t *testing.T) {
	cl, err := cluster.New(cluster.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fail := false
	cl.Start(func(w *cluster.Worker) {
		if _, err := New(w, 4); err != nil {
			fail = true
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !fail {
		t.Fatal("CPU 1 accepted")
	}
}

// TestGeneralityTax quantifies the paper's §6 argument: the portable
// allreduce must be measurably slower than the application-specific
// global sum on the same simulated hardware.
func TestGeneralityTax(t *testing.T) {
	const n = 16
	var start, end units.Time
	elapsed := func() units.Time { return (end - start) / 8 }
	run(t, n, func(c *Comm) {
		c.Barrier(50)
		if c.Rank() == 0 {
			start = c.w.Proc.Now()
		}
		for i := 0; i < 8; i++ {
			c.Allreduce(float64(i), 60+2*i)
		}
		if c.Rank() == 0 {
			end = c.w.Proc.Now()
		}
	})
	mpi := elapsed()
	t.Logf("MPI-StarT 16-way allreduce: %v (custom butterfly: ~15 us, paper 18.2)", mpi)
	if mpi < 20*units.Microsecond {
		t.Errorf("portable allreduce %v implausibly beats the custom primitive class", mpi)
	}
	if mpi > 120*units.Microsecond {
		t.Errorf("portable allreduce %v worse than even commodity-API clusters", mpi)
	}
}
