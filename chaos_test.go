package hyades

// Chaos determinism: fault injection must not weaken the determinism
// contract, and the reliable channel must hide faults from the model.
// Two coupled runs with the same fault seed must agree bit for bit —
// same model state, same event count, same final virtual clock — and
// their model state must also match a fault-free run exactly: the
// go-back-N layer masks drops by retransmission, so the physics never
// sees them.  Only the *state* digest is compared against the
// fault-free run (faults legitimately change timing and event counts;
// they must never change an answer).

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/gcm"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// faultStats is a run's fault-and-recovery counters: the reliable
// channel's, summed over the NIUs, and the fabric's fault counters.
type faultStats struct {
	startx.RelStats
	FaultDropped, FaultCorrupted, OutageDropped, FailedOver int64
}

// chaosFingerprint runs the small coupled configuration under the
// given fault plan and returns a SHA-256 over every worker's
// checkpointed state (state only — no clocks, no event counts), plus
// the run's observables for same-seed comparison.
func chaosFingerprint(t *testing.T, steps int, fc fault.Config, workers int) (digest [32]byte, events uint64, now units.Time, fs faultStats) {
	t.Helper()
	d := tile.Decomp{NXg: 16, NYg: 8, Px: 2, Py: 1, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 16, 8
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 16, 8
	cfg.CoupleEvery = 5

	tiles := cfg.Ocean.Decomp.Tiles()
	nWorkers := 2 * tiles
	ccfg := cluster.DefaultConfig(nWorkers, 1)
	ccfg.Fault = fc
	ccfg.Workers = workers
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	coupled := make([]*gcm.Coupled, nWorkers)
	var buildErr error
	cl.Start(func(w *cluster.Worker) {
		c := cfg
		if w.Rank < tiles {
			ph := physics.New(physics.Default())
			c.Atmos.Forcing = ph
			c.Physics = ph
		}
		cp, err := gcm.NewCoupled(c, lib.Bind(w))
		if err != nil {
			buildErr = err
			return
		}
		coupled[w.Rank] = cp
		cp.Run(steps)
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}

	h := sha256.New()
	for r, cp := range coupled {
		if cp == nil {
			t.Fatalf("worker %d did not build", r)
		}
		if err := cp.M.Checkpoint(h); err != nil {
			t.Fatalf("worker %d: checkpoint: %v", r, err)
		}
	}
	copy(digest[:], h.Sum(nil))
	for _, nd := range cl.Nodes {
		fs.Add(nd.NIU.Rel)
	}
	ns := cl.Fabric.Stats()
	fs.FaultDropped, fs.FaultCorrupted, fs.OutageDropped, fs.FailedOver = ns.FaultDropped, ns.FaultCorrupted, ns.OutageDropped, ns.FailedOver
	return digest, cl.Eng.Events(), cl.Eng.Now(), fs
}

// TestChaosRunIsDeterministic is the acceptance test for the fault
// subsystem: same seed, same faults, same answer — and the same answer
// as no faults at all.
func TestChaosRunIsDeterministic(t *testing.T) {
	const steps = 12
	fc := fault.Config{Seed: 42, DropRate: 1e-3}

	d1, e1, t1, fs1 := chaosFingerprint(t, steps, fc, 0)
	d2, e2, t2, fs2 := chaosFingerprint(t, steps, fc, 0)
	if fs1.Retransmits == 0 {
		t.Fatalf("chaos run exercised no retransmissions (drops=%d); the test is vacuous", fs1.FaultDropped)
	}
	if e1 != e2 || t1 != t2 {
		t.Errorf("same-seed chaos runs diverge: events %d vs %d, clock %v vs %v", e1, e2, t1, t2)
	}
	if d1 != d2 {
		t.Errorf("same-seed chaos runs produce different model state: %x vs %x", d1, d2)
	}
	if fs1 != fs2 {
		t.Errorf("same-seed chaos runs disagree on fault counters:\n%+v\n%+v", fs1, fs2)
	}

	d0, _, t0, fs0 := chaosFingerprint(t, steps, fault.Config{}, 0)
	if d0 != d1 {
		t.Errorf("faults leaked into the physics: chaos state %x, fault-free state %x", d1, d0)
	}
	// The fault-free run pays zero recovery overhead: the reliable
	// channel is not even enabled.
	if fs0 != (faultStats{}) {
		t.Errorf("fault-free run shows nonzero fault counters: %+v", fs0)
	}
	if t1 <= t0 {
		t.Errorf("retransmissions cost no virtual time: chaos %v vs fault-free %v", t1, t0)
	}
}

// TestChaosDeterminismAcrossWorkerCounts crosses the two contracts:
// under an active fault plan, runs with no pool and with a two-worker
// pool must agree on every observable — state, event count, virtual
// clock and the full fault-counter set.  Recovery (timeouts,
// retransmissions, duplicate suppression) happens entirely in engine
// events, so the host worker count must not be able to perturb it.
func TestChaosDeterminismAcrossWorkerCounts(t *testing.T) {
	const steps = 12
	fc := fault.Config{Seed: 42, DropRate: 1e-3}
	d1, e1, t1, fs1 := chaosFingerprint(t, steps, fc, -1)
	d2, e2, t2, fs2 := chaosFingerprint(t, steps, fc, 2)
	if fs1.Retransmits == 0 {
		t.Fatalf("chaos run exercised no retransmissions; the test is vacuous")
	}
	if e1 != e2 || t1 != t2 {
		t.Errorf("worker pool perturbs fault recovery: events %d vs %d, clock %v vs %v", e1, e2, t1, t2)
	}
	if d1 != d2 {
		t.Errorf("worker pool changes faulted model state: %x vs %x", d1, d2)
	}
	if fs1 != fs2 {
		t.Errorf("worker pool changes fault counters:\n%+v\n%+v", fs1, fs2)
	}
}

// TestPeerUnreachableSurfaces pins the failure mode: a permanently
// severed link must surface as comm.ErrPeerUnreachable from
// Cluster.Run within bounded virtual time — never a hang.
func TestPeerUnreachableSurfaces(t *testing.T) {
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.Fault = fault.Config{
		Outages: []fault.Outage{{Link: "inject(0)", From: 0}},
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(func(w *cluster.Worker) {
		ep := lib.Bind(w)
		ep.GlobalSum(float64(w.Rank))
	})
	err = cl.Run()
	if err == nil {
		t.Fatal("severed link produced no error")
	}
	if !errors.Is(err, comm.ErrPeerUnreachable) {
		t.Fatalf("error does not wrap ErrPeerUnreachable: %v", err)
	}
	var pe *comm.PeerUnreachableError
	if !errors.As(err, &pe) {
		t.Fatalf("error carries no *PeerUnreachableError: %v", err)
	}
	if pe.SrcNode != 0 || pe.DstNode != 1 {
		t.Errorf("diagnostics blame nodes %d -> %d, want 0 -> 1", pe.SrcNode, pe.DstNode)
	}
	if pe.Retries == 0 {
		t.Errorf("no retries recorded before giving up: %+v", pe)
	}
	// Bounded: the retry budget's backoff schedule sums to well under a
	// simulated minute.
	if cl.Eng.Now() > units.Minute {
		t.Errorf("failure declared only at %v of virtual time", cl.Eng.Now())
	}
}

// --- Whole-node crash/restart recovery ---

// recoveryScenario is the small gyre every node-crash test runs: 4
// tiles, 12 or 24 steps at ~25 ms of virtual time each, so the crash
// windows below land at known phases of the integration.
func recoveryScenario() gcm.Config {
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2}
	return gcm.GyreConfig(32, 32, 3, d)
}

// stateDigest hashes every rank's full prognostic state — the
// survival contract's observable.
func stateDigest(t *testing.T, res *gcm.Result) [32]byte {
	t.Helper()
	h := sha256.New()
	for r, m := range res.Models {
		if m == nil {
			t.Fatalf("rank %d has no model", r)
		}
		if err := m.Checkpoint(h); err != nil {
			t.Fatalf("rank %d: checkpoint: %v", r, err)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestNodeCrashRecoveryDeterministic is the acceptance test for the
// crash-recovery subsystem.  A run that loses node 1 for 1 ms (longer
// than the peer lease: survivors detect the death by lease expiry) and
// node 2 for 300 us (shorter than the lease: survivors learn from the
// rejoin announcement) must, at every host worker count, end with the
// same state digest, event count and final virtual clock — and the
// digest must equal the fault-free run's, bit for bit.
func TestNodeCrashRecoveryDeterministic(t *testing.T) {
	cfg := recoveryScenario()
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 200 * units.Millisecond, Until: 201 * units.Millisecond},
		{Node: "2", From: 400 * units.Millisecond, Until: 400*units.Millisecond + 300*units.Microsecond},
	}}

	type obs struct {
		digest [32]byte
		events uint64
		final  units.Time
		rec    gcm.RecoveryResult
	}
	run := func(workers int) obs {
		res, err := gcm.RunParallelOpts(4, 1, cfg, 0, 24,
			gcm.ParallelOpts{Fault: fc, CheckpointEvery: 6, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return obs{stateDigest(t, res), res.Events, res.FinalTime, res.Recovery}
	}

	inline := run(-1)
	pooled := run(2)

	if inline.rec.Restarts != 2 {
		t.Fatalf("scenario staged 2 crashes, run survived %d", inline.rec.Restarts)
	}
	if inline.rec.Checkpoints == 0 || inline.rec.RecoveryTime <= 0 || inline.rec.LostVirtual <= 0 {
		t.Errorf("recovery accounting is vacuous: %+v", inline.rec)
	}
	if inline.events != pooled.events || inline.final != pooled.final {
		t.Errorf("worker pool perturbs crash recovery: events %d vs %d, clock %v vs %v",
			inline.events, pooled.events, inline.final, pooled.final)
	}
	if inline.digest != pooled.digest {
		t.Errorf("worker pool changes recovered model state: %x vs %x", inline.digest, pooled.digest)
	}
	if inline.rec != pooled.rec {
		t.Errorf("worker pool changes recovery counters:\n%+v\n%+v", inline.rec, pooled.rec)
	}

	res0, err := gcm.RunParallelOpts(4, 1, cfg, 0, 24, gcm.ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d0 := stateDigest(t, res0); d0 != inline.digest {
		t.Errorf("crash recovery leaked into the physics: recovered state %x, fault-free state %x",
			inline.digest, d0)
	}
	// Crashes cost virtual time (detection, backoff, replay), never
	// correctness.
	if inline.final <= res0.FinalTime {
		t.Errorf("two crashes cost no virtual time: %v vs fault-free %v", inline.final, res0.FinalTime)
	}
}

// TestNodeCrashMixModeRecovers runs the two-processor SMP
// configuration: a node crash kills both rank procs of the SMP, and
// recovery must restore the intra-node staging (shared-memory
// mailboxes, pull locks) as well as the fabric state.
func TestNodeCrashMixModeRecovers(t *testing.T) {
	cfg := recoveryScenario()
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 200 * units.Millisecond, Until: 201 * units.Millisecond},
	}}
	res, err := gcm.RunParallelOpts(2, 2, cfg, 0, 12,
		gcm.ParallelOpts{Fault: fc, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 1 {
		t.Fatalf("staged 1 crash, survived %d", res.Recovery.Restarts)
	}
	res0, err := gcm.RunParallelOpts(2, 2, cfg, 0, 12, gcm.ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d, d0 := stateDigest(t, res), stateDigest(t, res0); d != d0 {
		t.Errorf("mix-mode recovery diverged from fault-free state: %x vs %x", d, d0)
	}
}

// TestCrashStormRecovers loses every node exactly once, staggered
// through the run — including node 0, whose rank holds the timing
// bookkeeping.  All four crashes must be survived with a fault-free
// digest.
func TestCrashStormRecovers(t *testing.T) {
	cfg := recoveryScenario()
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "0", From: 120 * units.Millisecond, Until: 121 * units.Millisecond},
		{Node: "1", From: 220 * units.Millisecond, Until: 221 * units.Millisecond},
		{Node: "2", From: 320 * units.Millisecond, Until: 321 * units.Millisecond},
		{Node: "3", From: 420 * units.Millisecond, Until: 421 * units.Millisecond},
	}}
	res, err := gcm.RunParallelOpts(4, 1, cfg, 0, 24,
		gcm.ParallelOpts{Fault: fc, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 4 {
		t.Fatalf("staged 4 crashes, survived %d", res.Recovery.Restarts)
	}
	res0, err := gcm.RunParallelOpts(4, 1, cfg, 0, 24, gcm.ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d, d0 := stateDigest(t, res), stateDigest(t, res0); d != d0 {
		t.Errorf("crash storm diverged from fault-free state: %x vs %x", d, d0)
	}
}

// TestCrashDuringCheckpointDiscardsPending lands the crash inside a
// checkpoint round — after some ranks have saved step 6 but before
// all four have.  The two-phase store must discard the spoiled
// pending set, restore from the previous commit, and still end
// bit-identical to the fault-free run.
func TestCrashDuringCheckpointDiscardsPending(t *testing.T) {
	cfg := recoveryScenario()
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "2", From: 150900 * units.Microsecond, Until: 151900 * units.Microsecond},
	}}
	res, err := gcm.RunParallelOpts(4, 1, cfg, 0, 12,
		gcm.ParallelOpts{Fault: fc, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 1 {
		t.Fatalf("staged 1 crash, survived %d", res.Recovery.Restarts)
	}
	if res.Recovery.PendingDiscarded == 0 {
		t.Fatalf("crash at 150.9ms no longer lands inside the step-6 checkpoint round (recalibrate the window): %+v", res.Recovery)
	}
	res0, err := gcm.RunParallelOpts(4, 1, cfg, 0, 12, gcm.ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d, d0 := stateDigest(t, res), stateDigest(t, res0); d != d0 {
		t.Errorf("discarded-checkpoint recovery diverged from fault-free state: %x vs %x", d, d0)
	}
}

// TestCrashWithoutCheckpointFailsLoudly pins the two unrecoverable
// failure modes: a crash with nothing to restore, and a permanent
// node loss.  Both must surface as bounded diagnostic errors from the
// driver — never a hang.
func TestCrashWithoutCheckpointFailsLoudly(t *testing.T) {
	cfg := recoveryScenario()

	// No checkpoint interval: the restart finds nothing to restore.
	fc := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "2", From: 150200 * units.Microsecond, Until: 151200 * units.Microsecond},
	}}
	_, err := gcm.RunParallelOpts(4, 1, cfg, 0, 12, gcm.ParallelOpts{Fault: fc})
	if err == nil {
		t.Fatal("crash with no checkpoint produced no error")
	}
	if !strings.Contains(err.Error(), "no surviving checkpoint") {
		t.Errorf("diagnostic does not name the missing checkpoint: %v", err)
	}

	// Permanent death: no restart is ever scheduled.
	fc = fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 100 * units.Millisecond},
	}}
	_, err = gcm.RunParallelOpts(4, 1, cfg, 0, 12, gcm.ParallelOpts{Fault: fc, CheckpointEvery: 3})
	if err == nil {
		t.Fatal("permanent node loss produced no error")
	}
	if !errors.Is(err, comm.ErrPeerUnreachable) {
		t.Errorf("permanent loss does not wrap ErrPeerUnreachable: %v", err)
	}
	if !strings.Contains(err.Error(), "recovery impossible") {
		t.Errorf("diagnostic does not say recovery is impossible: %v", err)
	}
}

// TestNodeOutageGrammar covers the -node-outage spec grammar and the
// cluster-level plan validation.
func TestNodeOutageGrammar(t *testing.T) {
	parse := []struct {
		spec string
		want string // "" = must parse
	}{
		{"3", ""},
		{"3:1000", ""},
		{"3:1000-2000", ""},
		{"*", ""},
		{"1*:500-900", ""},
		{"3:1000-2000,2:5000-6000", ""},
		{"3:1000,", "empty node selector"},
		{"3:", "bad node-outage crash instant"},
		{"3:abc", "bad node-outage crash instant"},
		{"3:1000-abc", "bad node-outage restart instant"},
		{"3:2000-1000", "reversed or empty window"},
		{"3:1000-1000", "reversed or empty window"},
		{"x*y", "bad node selector"},
		{"**", "bad node selector"},
		{"3:1000-2000,3:1000-2000", "duplicate node-outage spec"},
	}
	for _, tc := range parse {
		_, err := fault.ParseNodeOutages(tc.spec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.spec, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q: parsed, want error containing %q", tc.spec, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %v, want %q", tc.spec, err, tc.want)
		}
	}

	// Plan validation happens at cluster construction, not mid-run.
	build := []struct {
		outages []fault.NodeOutage
		want    string
	}{
		{[]fault.NodeOutage{{Node: "7", From: 1}}, "machine has nodes 0..3"},
		{[]fault.NodeOutage{
			{Node: "1", From: 100 * units.Microsecond, Until: units.Millisecond},
			{Node: "1", From: 500 * units.Microsecond, Until: 2 * units.Millisecond},
		}, "crash windows overlap"},
		{[]fault.NodeOutage{
			{Node: "1", From: 100 * units.Microsecond},
			{Node: "1", From: 5 * units.Millisecond, Until: 6 * units.Millisecond},
		}, "after its permanent death"},
	}
	for _, tc := range build {
		ccfg := cluster.DefaultConfig(4, 1)
		ccfg.Fault = fault.Config{Seed: 1, NodeOutages: tc.outages}
		_, err := cluster.New(ccfg)
		if err == nil {
			t.Errorf("outages %+v: cluster built, want error containing %q", tc.outages, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("outages %+v: error %v, want %q", tc.outages, err, tc.want)
		}
	}
}

// TestDropsWithCrashesEndInFaultFreeDigest runs the plan that used to
// hang — 1 % packet drops on every link plus two node crashes — for 30
// steps of the 4-node gyre, on a cluster built here so that the engine
// watchdog can be one second of virtual time and a host-time deadline
// can watch the run from outside.  A lease lapsing on a peer that is
// only lossy used to send one rank alone into the recovery rendezvous,
// where it parked until the watchdog named it.  The run must end in the
// fault-free digest; a missed deadline reports whether virtual time is
// still advancing (a retransmit or lease livelock) or has stopped (a
// host loop).  About 4 s of host time, and a hundred under the race
// detector, so -short skips it; ci.sh runs it in its chaos stage.
func TestDropsWithCrashesEndInFaultFreeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("30 steps of the 4-node gyre under loss; ci.sh runs it without -race")
	}
	const steps, every = 30, 5
	d := tile.Decomp{NXg: 64, NYg: 64, Px: 2, Py: 2}
	cfg := gcm.GyreConfig(64, 64, 4, d)
	outages, err := fault.ParseNodeOutages("1:2100000-2101000,2:4900000-4901000")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.DefaultConfig(4, 1)
	ccfg.Fault = fault.Config{Seed: 11, DropRate: 1e-2, NodeOutages: outages}
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.SetWatchdog(units.Second)
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	rec := lib.Recovery(true)

	// The rank loop of gcm's runner with warm-up 0: rendezvous, restore
	// the committed checkpoint or start with a barrier, step with a
	// coordinated checkpoint every few steps, retry after an interrupt.
	models := make([]*gcm.Model, cl.Processors())
	finished := 0
	attempt := func(rank int, ep comm.Endpoint) (done bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*des.Interrupt); !ok {
					panic(r) // a killed incarnation dies with its node
				}
			}
		}()
		if rec.Enter(rank) {
			return true
		}
		m, err := gcm.New(cfg, ep)
		if err != nil {
			rec.Fail(err)
			return true
		}
		if step, blob, ok := rec.Checkpoint(rank); ok {
			if err := m.Restore(bytes.NewReader(blob)); err != nil || m.Steps != step {
				rec.Fail(fmt.Errorf("rank %d restore from step %d: %v", rank, step, err))
				return true
			}
			ep.Busy(rec.CopyCost(len(blob)))
		} else {
			ep.Barrier()
		}
		for m.Steps < steps {
			m.Run(1)
			if m.Steps%every == 0 && m.Steps < steps {
				var buf bytes.Buffer
				if err := m.Checkpoint(&buf); err != nil {
					rec.Fail(err)
					return true
				}
				ep.Busy(rec.CopyCost(buf.Len()))
				rec.SaveCheckpoint(rank, m.Steps, buf.Bytes())
			}
		}
		ep.Barrier()
		rec.Done(rank)
		models[rank] = m
		finished++
		return true
	}
	cl.Start(func(w *cluster.Worker) {
		ep := lib.Bind(w)
		for !attempt(w.Rank, ep) {
		}
	})

	// A probe event publishes the virtual clock to the host every 10 ms
	// of virtual time until every rank is finished, and fails the run
	// once the deadline has passed.
	var clock atomic.Int64
	var stop atomic.Bool
	var probe func()
	probe = func() {
		clock.Store(int64(cl.Eng.Now()))
		if stop.Load() {
			cl.Eng.Fail(errors.New("host-time deadline passed"))
			return
		}
		if finished < len(models) {
			cl.Eng.Schedule(10*units.Millisecond, probe)
		}
	}
	cl.Eng.Schedule(0, probe)
	ran := make(chan error, 1)
	go func() { ran <- cl.Run() }()
	const deadline = 3 * time.Minute
	select {
	case err = <-ran:
	case <-time.After(deadline):
		v0 := units.Time(clock.Load())
		time.Sleep(time.Second)
		v1 := units.Time(clock.Load())
		stop.Store(true)
		if v1 == v0 {
			// The engine is stuck inside one instant and cannot be
			// stopped from here; leave it to the test binary's exit.
			t.Fatalf("no result after %v of host time: virtual time stopped at %v (a host loop)", deadline, v1)
		}
		<-ran
		cl.Close()
		t.Fatalf("no result after %v of host time: virtual time still advancing, %v → %v (a retransmit or lease livelock)", deadline, v0, v1)
	}
	cl.Close()
	if err != nil {
		t.Fatalf("drops plus crashes: %v", err)
	}
	if got := rec.Stats().Restarts; got != 2 {
		t.Fatalf("plan staged 2 crashes, run survived %d", got)
	}
	h := sha256.New()
	for r, m := range models {
		if err := m.Checkpoint(h); err != nil {
			t.Fatalf("rank %d: checkpoint: %v", r, err)
		}
	}
	res0, err := gcm.RunParallelOpts(4, 1, cfg, 0, steps, gcm.ParallelOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [32]byte(h.Sum(nil)), stateDigest(t, res0); got != want {
		t.Errorf("drops plus crashes ended in %x, fault-free state %x", got, want)
	}
}

// TestRestartBudgetExhausted stages nine short crash windows, all
// inside the run, against the restart budget of eight: the ninth crash
// must end the run with the budget diagnostic, not a ninth recovery.
func TestRestartBudgetExhausted(t *testing.T) {
	cfg := recoveryScenario()
	var outages []fault.NodeOutage
	for k := 0; k < comm.DefaultMaxRestarts+1; k++ {
		from := 100*units.Millisecond + units.Time(k)*15*units.Millisecond
		outages = append(outages, fault.NodeOutage{Node: strconv.Itoa(1 + k%3), From: from, Until: from + units.Millisecond})
	}
	fc := fault.Config{Seed: 7, NodeOutages: outages}
	_, err := gcm.RunParallelOpts(4, 1, cfg, 0, 24, gcm.ParallelOpts{Fault: fc, CheckpointEvery: 2})
	if err == nil {
		t.Fatal("nine crashes against a budget of eight produced no error")
	}
	if want := fmt.Sprintf("crash #%d exceeds the restart budget (max %d)", comm.DefaultMaxRestarts+1, comm.DefaultMaxRestarts); !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want %q", err, want)
	}
}
