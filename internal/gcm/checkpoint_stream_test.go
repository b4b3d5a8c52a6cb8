package gcm

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/tile"
)

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// blobSpy records, for every checkpoint the runner takes of its job,
// the unused capacity of the buffer the runner then commits.
type blobSpy struct {
	job
	slack *[]int
}

func (s blobSpy) Checkpoint(w io.Writer) error {
	if err := s.job.Checkpoint(w); err != nil {
		return err
	}
	buf, ok := w.(*bytes.Buffer)
	if !ok {
		return errors.New("the runner checkpoints into something other than a bytes.Buffer")
	}
	*s.slack = append(*s.slack, cap(buf.Bytes())-buf.Len())
	return nil
}

// TestCheckpointStreams: a checkpoint is encoded through one small
// buffer, not through a full-size copy of every section.  Writing the
// 128x64x15 ocean tile, or either rank of the coupled job at that size,
// into io.Discard allocates less than 64 KiB a call (a copy per section
// was about 15 MiB for the ocean tile).  checkpointLen is the written
// length for all three, and the blobs a checkpointing run commits carry
// no slack.
//
// Skipped under -short, and so under ci.sh's race pass: ci.sh runs it
// unraced in its steady-state allocation stage.
func TestCheckpointStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs unraced, without -short")
	}
	d := tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}
	ocean, err := New(CoarseOceanConfig(d), &comm.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	var coupled [2]*Coupled // rank 0 the atmosphere, rank 1 the ocean
	for rank := range coupled {
		if coupled[rank], err = NewCoupled(DefaultCoupledConfig(d).withOwnPhysics(), &pairSerial{rank: rank}); err != nil {
			t.Fatal(err)
		}
	}
	// The SST section the atmosphere holds after its first coupling.
	atm := coupled[0]
	atm.phys.SST = field.NewF2(atm.M.G.NX, atm.M.G.NY, 2)

	for _, c := range []struct {
		name string
		j    job
	}{{"Model ocean", ocean}, {"Coupled atmosphere", atm}, {"Coupled ocean", coupled[1]}} {
		var n countWriter
		if err := c.j.Checkpoint(&n); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := c.j.checkpointLen(); int(n) != want {
			t.Errorf("%s: wrote %d bytes, checkpointLen says %d", c.name, n, want)
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if err := c.j.Checkpoint(io.Discard); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
			t.Errorf("%s: a %d-byte checkpoint allocates %d bytes a call, want < 64 KiB", c.name, n, per)
		}
	}

	gyre := GyreConfig(32, 32, 3, tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2})
	var slack []int
	build := func(rank int, ep comm.Endpoint) (job, error) {
		m, err := New(gyre, ep)
		if err != nil {
			return nil, err
		}
		return blobSpy{m, &slack}, nil
	}
	const ranks, steps, every = 4, 5, 2 // checkpoints at steps 2 and 4
	if _, err := runHyades(ranks, 1, ParallelOpts{CheckpointEvery: every}, nil, build, 1, steps, nil); err != nil {
		t.Fatal(err)
	}
	if len(slack) != ranks*2 {
		t.Fatalf("%d checkpoints taken, want %d", len(slack), ranks*2)
	}
	for i, s := range slack {
		if s != 0 {
			t.Errorf("checkpoint %d: committed blob has %d bytes of unused capacity", i, s)
		}
	}
}

var errDisk = errors.New("disk full")

// failAt accepts the first k bytes written to it and fails on the next.
type failAt struct{ k, n int }

func (f *failAt) Write(p []byte) (int, error) {
	if f.n+len(p) <= f.k {
		f.n += len(p)
		return len(p), nil
	}
	m := f.k - f.n
	f.n = f.k
	return m, errDisk
}

// TestCheckpointWriteNamesFailedPart: a write that fails part-way
// returns the writer's error, named after the part of the stream whose
// bytes it carried — the contract namesStreamPart holds restores to.
func TestCheckpointWriteNamesFailedPart(t *testing.T) {
	m, _, err := RunSerial(smallGyre(1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	ocean, err := NewCoupled(miniCoupled(1, 1).withOwnPhysics(), &pairSerial{rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	const header = 8 * headerWords
	secs := m.checkpointSections()
	third := header + 8*(len(secs[0].data)+len(secs[1].data)) + 4*len(secs[2].data)
	if 8*len(secs[0].data) <= chunkBytes {
		t.Fatalf("section U of %d bytes fits one chunk: no chunk boundary inside it", 8*len(secs[0].data))
	}
	tileLen := ocean.M.checkpointLen()
	for _, c := range []struct {
		name string
		j    job
		k    int
		want string
	}{
		{"inside the header", m, 20, "checkpoint header"},
		{"at the end of the header", m, header, "checkpoint section U"},
		{"on a chunk boundary", m, header + chunkBytes, "checkpoint section U"},
		{"in the middle of the third section", m, third, "checkpoint section " + secs[2].name},
		{"in the coupled flags", ocean, tileLen + 3, "coupled checkpoint flags"},
		{"in a coupled section", ocean, tileLen + 8 + 10, "checkpoint section ocean forcing TauX"},
	} {
		err := c.j.Checkpoint(&failAt{k: c.k})
		switch {
		case !errors.Is(err, errDisk):
			t.Errorf("%s (byte %d): error %v, want the writer's", c.name, c.k, err)
		case !strings.Contains(err.Error(), c.want) || !namesStreamPart.MatchString(err.Error()):
			t.Errorf("%s (byte %d): error %q does not name %q", c.name, c.k, err, c.want)
		}
	}
}
