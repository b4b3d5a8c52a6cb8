package gcm

import (
	"bytes"
	"regexp"
	"testing"

	"hyades/internal/comm"
)

// A refused stream must say which part of it was refused.
var namesStreamPart = regexp.MustCompile(`checkpoint header|checkpoint flags|section`)

// stream returns j's Checkpoint bytes.
func stream(t testing.TB, j job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRestore restores data into j and holds the all-or-nothing
// contract: on error j's Checkpoint bytes are what they were, and the
// error names the header, the flags or a section.  A stream that parses
// is adopted; a flipped payload bit therefore goes unnoticed until the
// format carries a checksum per section.
func checkRestore(t *testing.T, j job, data []byte) {
	before := stream(t, j)
	err := j.Restore(bytes.NewReader(data))
	if err == nil {
		return
	}
	if !namesStreamPart.MatchString(err.Error()) {
		t.Errorf("error names no part of the stream: %v", err)
	}
	if !bytes.Equal(stream(t, j), before) {
		t.Fatalf("refused stream changed the state: %v", err)
	}
}

// seeds checks that the real stream good round-trips through a fresh
// job, then returns it with the variants the format's boundaries
// suggest: cut mid-header, mid-section and one byte short; with a
// flipped magic, step count and AB cursor.
func seeds(f *testing.F, good []byte, fresh job) [][]byte {
	if err := fresh.Restore(bytes.NewReader(good)); err != nil {
		f.Fatalf("a real checkpoint does not restore: %v", err)
	}
	if !bytes.Equal(stream(f, fresh), good) {
		f.Fatal("a real checkpoint does not round-trip")
	}
	out := [][]byte{good, good[:20], good[:100], good[:len(good)-1]}
	for _, at := range []int{0, 55, 56} {
		b := append([]byte(nil), good...)
		b[at] ^= 0x80
		out = append(out, b)
	}
	return out
}

// FuzzModelRestore: Model.Restore never panics, and a stream it refuses
// leaves the model unchanged and names the part it refused.  Seeded from
// a 2-step checkpoint of the small gyre tile on comm.Serial.
func FuzzModelRestore(f *testing.F) {
	cfg := smallGyre(1, 1)
	fresh := func(t testing.TB) *Model {
		m, err := New(cfg, &comm.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src, _, err := RunSerial(cfg, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range seeds(f, stream(f, src), fresh(f)) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, fresh(t), data)
	})
}

// pairSerial is comm.Serial posing as one rank of a two-worker coupled
// job: rank 0 builds the atmosphere, rank 1 the ocean.  Their 1x1 tiles
// wrap locally, so neither construction nor restore exchanges.
type pairSerial struct {
	comm.Serial
	rank int
}

func (p *pairSerial) Rank() int { return p.rank }
func (p *pairSerial) N() int    { return 2 }

// FuzzCoupledRestore: Coupled.Restore holds the same contract on both
// components.  Seeded from 2-step checkpoints of the atmosphere and the
// ocean worker of the mini coupled job, coupling state included.
func FuzzCoupledRestore(f *testing.F) {
	cfg := miniCoupled(1, 1)
	fresh := func(t testing.TB, ocean bool) *Coupled {
		ep := &pairSerial{}
		if ocean {
			ep.rank = 1
		}
		c, err := NewCoupled(cfg.withOwnPhysics(), ep)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	res, err := RunCoupled(2, 1, cfg, 2, ParallelOpts{}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	for rank, c := range res.Coupled {
		ocean := rank == 1
		for _, b := range seeds(f, stream(f, c), fresh(f, ocean)) {
			f.Add(ocean, b)
		}
	}
	f.Fuzz(func(t *testing.T, ocean bool, data []byte) {
		checkRestore(t, fresh(t, ocean), data)
	})
}
