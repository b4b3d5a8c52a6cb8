package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"hyades/internal/fault"
	"hyades/internal/gcm"
	"hyades/internal/units"
)

// recover4 runs through gcm.RunParallelOpts — the crash-recovery rank
// runner is private to package gcm — so one timed block is one whole
// round: build the 4-node machine, integrate blockOps steps with a
// coordinated checkpoint every 5, lose node 1 about 30 % of the way in
// and node 2 about 70 % of the way in (1 ms each), recover, and
// tear down.  An op is still one model step.  The output check is the
// survival contract: every round's state digest equals that of an
// untimed fault-free run of the same seed.

const recoverCheckpointEvery = 5

// crashOutage is how long each crashed node stays down.
const crashOutage = units.Millisecond

func modelsDigest(res *gcm.Result) (string, error) {
	all := sha256.New()
	for r, m := range res.Models {
		if m == nil {
			return "", fmt.Errorf("rank %d built no model", r)
		}
		h := sha256.New()
		if err := m.Checkpoint(h); err != nil {
			return "", err
		}
		all.Write(h.Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil)), nil
}

// recoverRun is the state of one recover4 run.
type recoverRun struct {
	w       *workload
	cfg     gcm.Config
	workers int
	plan    fault.Config

	refDigest string
}

// newRecoverRun integrates the fault-free reference (in refWorkers
// mode) and places the two crashes relative to its virtual length.
func newRecoverRun(w *workload, in *inputs, sc scale, workers, refWorkers int) (*recoverRun, error) {
	rr := &recoverRun{w: w, cfg: recoverConfig(in, sc), workers: workers}
	ref, err := gcm.RunParallelOpts(w.nodes, w.ppn, rr.cfg, 0, w.blockOps, gcm.ParallelOpts{Workers: refWorkers})
	if err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}
	if rr.refDigest, err = modelsDigest(ref); err != nil {
		return nil, err
	}
	for i, node := range []int{1, 2} {
		frac := 0.3 + 0.4*float64(i)
		at := units.Time(float64(ref.FinalTime) * frac * in.crashJitter[i])
		rr.plan.NodeOutages = append(rr.plan.NodeOutages,
			fault.NodeOutage{Node: strconv.Itoa(node), From: at, Until: at + crashOutage})
	}
	return rr, nil
}

// setup times one build-and-teardown of the machine and the models with
// the recovery controller attached and no step taken.
func (rr *recoverRun) setup() (time.Duration, error) {
	t0 := time.Now()
	_, err := gcm.RunParallelOpts(rr.w.nodes, rr.w.ppn, rr.cfg, 0, 0,
		gcm.ParallelOpts{Workers: rr.workers, CheckpointEvery: recoverCheckpointEvery})
	return time.Since(t0), err
}

// round runs one faulted round and checks that it survived.
func (rr *recoverRun) round() (*gcm.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := gcm.RunParallelOpts(rr.w.nodes, rr.w.ppn, rr.cfg, 0, rr.w.blockOps,
		gcm.ParallelOpts{Workers: rr.workers, Fault: rr.plan, CheckpointEvery: recoverCheckpointEvery})
	d := time.Since(t0)
	return res, d, err
}

// survived checks one faulted round against the survival contract.
func (rr *recoverRun) survived(out *gcm.Result, err error) (digest string, why string) {
	if err != nil {
		return "", err.Error()
	}
	if digest, err = modelsDigest(out); err != nil {
		return "", err.Error()
	}
	if digest != rr.refDigest {
		return digest, "state digest differs from the fault-free run"
	}
	if got, want := out.Recovery.Restarts, len(rr.plan.NodeOutages); got != want {
		return digest, fmt.Sprintf("survived %d crashes, staged %d", got, want)
	}
	return digest, ""
}

// runRecover is runSession's counterpart for recover4: the reference
// (the fault-free run, then one faulted round whose counters are the
// check window), the set-up samples, then timed rounds until the budget
// is spent.  opt.blocks < 0 stops after the reference.
func runRecover(w *workload, in *inputs, sc scale, opt sessionOpts, setupBudget float64) (res *sessionResult, rssMiB float64, setupS []float64, err error) {
	refWorkers := -1
	if opt.workers < 0 {
		refWorkers = 0
	}
	res = &sessionResult{blockOps: w.blockOps}
	fail := func(round int, why string) {
		res.failed += int64(w.blockOps)
		if len(res.notes) == 0 {
			res.notes = append(res.notes, fmt.Sprintf("round %d did not survive: %s", round, why))
		}
	}
	var rr *recoverRun
	rssMiB, err = withoutGC(func() (err error) {
		if rr, err = newRecoverRun(w, in, sc, opt.workers, refWorkers); err != nil {
			return err
		}
		out, _, err := rr.round()
		res.attempted += int64(w.blockOps)
		var why string
		if res.digest, why = rr.survived(out, err); why != "" {
			fail(0, why)
		}
		if err == nil {
			res.win = recoverWindow(w, out)
		}
		return nil
	})
	if err != nil || opt.blocks < 0 {
		return res, rssMiB, nil, err
	}
	for moreSetups(setupS, setupBudget) {
		d, err := rr.setup()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up round: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	if opt.traced {
		res.tr = newTracer()
	}
	host0 := readHost()
	for {
		var from int64
		if res.tr != nil {
			from = res.tr.now()
		}
		out, d, err := rr.round()
		res.blocks = append(res.blocks, d)
		res.ops += int64(w.blockOps)
		if _, why := rr.survived(out, err); why != "" {
			fail(len(res.blocks), why)
		}
		if tr := res.tr; tr != nil {
			// The private runner cannot be decorated: the whole round is
			// one span of stack time.
			to := tr.now()
			tr.opaqueNs += to - from
			tr.addSpan(span{Name: "RunParallelOpts", Rank: -1, Start: from, End: to, Parent: -1, Step: int32(len(res.blocks) - 1)})
		}
		n := len(res.blocks)
		if opt.blocks > 0 && n >= opt.blocks || opt.blocks == 0 && res.wall()+res.wall()/time.Duration(n) > opt.budget {
			break
		}
	}
	res.host.add(host0, readHost())
	res.attempted += res.ops
	return res, rssMiB, setupS, nil
}

// recoverWindow reads the exact counters of one faulted round.
func recoverWindow(w *workload, out *gcm.Result) window {
	win := window{
		ops:    int64(w.blockOps),
		simPs:  int64(out.FinalTime),
		events: int64(out.Events),
		net:    out.Net,
	}
	win.comm.ComputeTime = out.ComputeTime
	win.comm.ExchangeTime = out.ExchangeTime
	win.comm.GsumTime = out.GsumTime
	win.body.flopsPS, win.body.flopsDS = out.TotalPS, out.TotalDS
	for _, m := range out.Models {
		win.body.cgIters += m.Solver.TotalIters
		win.body.solves += m.Solver.Solves
	}
	win.retransmits, win.timeouts = out.Fault.Retransmits, out.Fault.Timeouts
	rec := out.Recovery
	win.restarts, win.ckRounds, win.ckDiscards = int64(rec.Restarts), int64(rec.Checkpoints), int64(rec.PendingDiscarded)
	win.ckBytes = rec.CheckpointBytes
	win.lostPs, win.lostFlops = int64(rec.LostVirtual), rec.LostFlops
	return win
}
