package gcm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/fault"
	"hyades/internal/gcm/tile"
	"hyades/internal/node"
	"hyades/internal/plates"
)

// TestTimedAccountingOneDefinition pins the single meaning of
// Result.Compute/Exchange/GsumTime: the timed region only, whichever
// shape the run takes.  A checkpoint-only run of a job must report the
// plain run's three totals, plus nothing but the checkpoint
// serialization charge in ComputeTime — before the runners merged, the
// recovery path also counted model construction and warm-up traffic,
// so cmd/hyades's "communication fraction" row changed meaning with
// -checkpoint-every.
func TestTimedAccountingOneDefinition(t *testing.T) {
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2}
	cfg := GyreConfig(32, 32, 3, d)
	const warmup, steps, every = 1, 5, 2 // checkpoints at steps 2 and 4
	plain, err := RunParallelOpts(4, 1, cfg, warmup, steps, ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := RunParallelOpts(4, 1, cfg, warmup, steps, ParallelOpts{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Recovery.Enabled || !ck.Recovery.Enabled || ck.Recovery.Checkpoints != 2 {
		t.Fatalf("scenario broken: plain %+v, checkpointed %+v", plain.Recovery, ck.Recovery)
	}
	// Every committed byte was charged once, as a memcpy, to its rank.
	charge := node.MemcpyBandwidth.Transfer(int(ck.Recovery.CheckpointBytes / 8))
	charge *= 8
	if got := ck.ComputeTime - plain.ComputeTime; got != charge {
		t.Errorf("ComputeTime: checkpointed run exceeds plain by %v, want the checkpoint charge %v", got, charge)
	}
	if ck.ExchangeTime != plain.ExchangeTime {
		t.Errorf("ExchangeTime: %v checkpointed, %v plain", ck.ExchangeTime, plain.ExchangeTime)
	}
	if ck.GsumTime != plain.GsumTime {
		t.Errorf("GsumTime: %v checkpointed, %v plain", ck.GsumTime, plain.GsumTime)
	}
	if ck.TotalPS != plain.TotalPS || ck.TotalDS != plain.TotalDS {
		t.Errorf("flops: %d/%d checkpointed, %d/%d plain", ck.TotalPS, ck.TotalDS, plain.TotalPS, plain.TotalDS)
	}
}

// TestResumeFromDamagedPlates: a resume must end in a section-named
// error, never a panic or a half-loaded model, when the newest complete
// plate set holds a truncated plate, trailing garbage or a plate whose
// header contradicts its file name.
func TestResumeFromDamagedPlates(t *testing.T) {
	cfg := miniCoupled(2, 1)
	n := 2 * cfg.Ocean.Decomp.Tiles()
	dir := t.TempDir()
	if _, err := RunCoupled(n, 1, cfg, 8, ParallelOpts{CheckpointEvery: 3}, &plates.Dir{Path: dir}, nil); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "plate_step00000006_rank003.ck") // an ocean rank
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("the run left no step-6 plate: %v", err)
	}
	older, err := os.ReadFile(filepath.Join(dir, "plate_step00000003_rank003.ck"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plate []byte
		want  string
	}{
		{"truncated in a tile section", good[:len(good)/2], "restore section"},
		{"truncated in the coupling state", good[:len(good)-8], "restore section ocean forcing Q"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "after the last checkpoint section"},
		{"another step's plate", older, "checkpoint header: stream is at step 3"},
	} {
		if err := os.WriteFile(victim, tc.plate, 0o644); err != nil {
			t.Fatal(err)
		}
		seeded := &plates.Dir{Path: dir}
		if step, err := seeded.Load(n); err != nil || step != 6 {
			t.Fatalf("%s: Load = %d, %v", tc.name, step, err)
		}
		_, err := RunCoupled(n, 1, cfg, 8, ParallelOpts{}, seeded, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "rank 3 restore from step-6 checkpoint") {
			t.Errorf("%s: error %v, want one naming rank 3, step 6 and %q", tc.name, err, tc.want)
		}
	}
}

// TestRestoreIsAllOrNothing: a stream that fails anywhere — header,
// flags or any section — must leave the worker's state exactly as it
// was, and a flipped bit the format can detect must be an error.
func TestRestoreIsAllOrNothing(t *testing.T) {
	cfg := miniCoupled(2, 1)
	n := 2 * cfg.Ocean.Decomp.Tiles()
	res, err := RunCoupled(n, 1, cfg, 7, ParallelOpts{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range res.Coupled[1:3] { // one atmosphere rank, one ocean rank
		var stream, before bytes.Buffer
		if err := cp.Checkpoint(&stream); err != nil {
			t.Fatal(err)
		}
		good := stream.Bytes()
		tileLen := func() int {
			var b bytes.Buffer
			if err := cp.M.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			return b.Len()
		}()
		// Scramble the live state so a partial load would show.
		cp.M.S.U.Raw()[0] += 1
		if err := cp.Checkpoint(&before); err != nil {
			t.Fatal(err)
		}
		flip := func(at int) []byte {
			bad := append([]byte(nil), good...)
			bad[at] ^= 0x10
			return bad
		}
		for name, bad := range map[string][]byte{
			"magic":                     flip(0),
			"version":                   flip(8),
			"grid":                      flip(16),
			"rank":                      flip(40),
			"step count high":           flip(55),
			"AB cursor":                 flip(56),
			"coupling flags":            flip(tileLen),
			"cut in last tile section":  good[:tileLen-1],
			"cut in coupling section":   good[:len(good)-1],
			"cut before coupling flags": good[:tileLen],
			"cut in header":             good[:20],
		} {
			if err := cp.Restore(bytes.NewReader(bad)); err == nil {
				t.Errorf("ocean=%v: %s: corrupt stream accepted", cp.IsOcean, name)
			}
			var after bytes.Buffer
			if err := cp.Checkpoint(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after.Bytes(), before.Bytes()) {
				t.Fatalf("ocean=%v: %s: failed restore changed the worker's state", cp.IsOcean, name)
			}
		}
	}
}

// TestLinkFailureUnderRecovery: with checkpoints on, the recovery
// controller is attached although no node crashes, and it hands a
// stall that points at no crash back to the caller: a permanently
// severed link still ends the run in an error that wraps
// comm.ErrPeerUnreachable, not in a rollback.
func TestLinkFailureUnderRecovery(t *testing.T) {
	d := tile.Decomp{NXg: 16, NYg: 16, Px: 2, Py: 1}
	plan := fault.Config{Outages: []fault.Outage{{Link: "inject(1)", From: 0}}}
	_, err := RunParallelOpts(2, 1, GyreConfig(16, 16, 3, d), 0, 4, ParallelOpts{Fault: plan, CheckpointEvery: 2})
	if !errors.Is(err, comm.ErrPeerUnreachable) {
		t.Fatalf("severed link under recovery: %v, want an error wrapping ErrPeerUnreachable", err)
	}
}
