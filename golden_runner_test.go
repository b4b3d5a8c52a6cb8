package hyades

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hyades/internal/fault"
	"hyades/internal/gcm"
	"hyades/internal/gcm/tile"
	"hyades/internal/netmodel"
	"hyades/internal/units"
)

// The runner fixture pins what the rank runner owes its callers: for a
// fixed job, the state digest, the engine's event count and final
// clock, the timed region's length and the flop totals.  It was
// recorded from the tree BEFORE runOn and runRecovery were merged into
// one attempt loop (the cases below only use entry points that exist
// on both sides of the merge), so "the fault-free run is the
// zero-crash case of the recovery loop" is checked against the two
// loops it replaced, not against itself.  Regenerate (only for a
// deliberate schedule change) with:
//
//	go test -run TestGoldenRunner -update .

// runnerObs is one run's pinned observables.
type runnerObs struct {
	Digest    string
	Events    uint64
	FinalTime int64
	Elapsed   int64
	TotalPS   int64
	TotalDS   int64
}

func observeRun(t *testing.T, res *gcm.Result, err error) runnerObs {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for r, m := range res.Models {
		if m == nil {
			t.Fatalf("rank %d has no model", r)
		}
		if err := m.Checkpoint(h); err != nil {
			t.Fatalf("rank %d: checkpoint: %v", r, err)
		}
	}
	return runnerObs{
		Digest:    hex.EncodeToString(h.Sum(nil)),
		Events:    res.Events,
		FinalTime: int64(res.FinalTime),
		Elapsed:   int64(res.Elapsed),
		TotalPS:   res.TotalPS,
		TotalDS:   res.TotalDS,
	}
}

// twoCrashPlan is the plan of TestNodeCrashRecoveryDeterministic: one
// outage longer than the peer lease, one shorter.
func twoCrashPlan() fault.Config {
	return fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 200 * units.Millisecond, Until: 201 * units.Millisecond},
		{Node: "2", From: 400 * units.Millisecond, Until: 400*units.Millisecond + 300*units.Microsecond},
	}}
}

func TestGoldenRunner(t *testing.T) {
	if testing.Short() {
		// Thirteen whole runs; the race detector adds nothing to a
		// comparison of deterministic observables (ci.sh runs the
		// fixture in its own stage, without it).
		t.Skip("runner fixture skipped in -short mode")
	}
	cfg := recoveryScenario()
	hyadesCases := []struct {
		name          string
		warmup, steps int
		opts          gcm.ParallelOpts
	}{
		{"plain", 2, 10, gcm.ParallelOpts{}},
		{"checkpoint_only", 2, 10, gcm.ParallelOpts{CheckpointEvery: 4}},
		{"two_crashes", 0, 24, gcm.ParallelOpts{Fault: twoCrashPlan(), CheckpointEvery: 6}},
		// The same crashes behind a warm-up: the first restore lands
		// inside the timed region, the second re-crosses nothing.
		{"two_crashes_warm", 3, 21, gcm.ParallelOpts{Fault: twoCrashPlan(), CheckpointEvery: 6}},
	}
	got := map[string]runnerObs{}
	for _, c := range hyadesCases {
		for _, w := range []struct {
			name    string
			workers int
		}{{"inline", -1}, {"pool1", 1}, {"poolMax", 0}} {
			opts := c.opts
			opts.Workers = w.workers
			res, err := gcm.RunParallelOpts(4, 1, cfg, c.warmup, c.steps, opts)
			got[c.name+"/"+w.name] = observeRun(t, res, err)
		}
	}
	// The commodity-network runner has no worker pool; one row.
	res, err := gcm.RunParallelNet(netmodel.GigabitEthernet(), cfg, 2, 10)
	got["gigabit"] = observeRun(t, res, err)

	path := filepath.Join("testdata", "golden_runner.json")
	if *updateCoupledGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing runner fixture (run with -update to record): %v", err)
	}
	want := map[string]runnerObs{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the test produces %d", path, len(want), len(got))
	}
	for k, w := range want {
		if g := got[k]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s\n got %+v\nwant %+v", path, k, g, w)
		}
	}
}

// TestGoldenRunnerCoupled runs the coupled golden job through the
// runner's coupled entry point: the state it reaches must be the one
// testdata/golden_coupled.json pins for the hand-rolled launcher of
// golden_coupled_test.go (the runner adds barriers, so clock and event
// count legitimately differ; state may not).
func TestGoldenRunnerCoupled(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_coupled.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	d := tile.Decomp{NXg: 16, NYg: 8, Px: 2, Py: 1, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 16, 8
	cfg.Ocean.Grid.NZ = 4
	cfg.Ocean.Grid.DZ = []float64{250, 500, 1000, 2250}
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 16, 8
	cfg.CoupleEvery = 5
	pools := []struct {
		name    string
		workers int
	}{{"inline", -1}, {"pool1", 1}, {"poolMax", 0}}
	if testing.Short() {
		pools = pools[:1]
	}
	for _, w := range pools {
		res, err := gcm.RunCoupled(2*d.Tiles(), 1, cfg, 12, gcm.ParallelOpts{Workers: w.workers}, nil, nil)
		if got := observeRun(t, res, err).Digest; got != want["digest/"+w.name] {
			t.Errorf("%s: coupled state digest %s, golden %s", w.name, got, want["digest/"+w.name])
		}
	}
	// The same loop carries the coupled job through a node crash: node 1
	// (an atmosphere rank) dies mid-run and the job rolls back to a
	// checkpoint that is deliberately not a coupling boundary.
	crash := fault.Config{Seed: 7, NodeOutages: []fault.NodeOutage{
		{Node: "1", From: 40 * units.Millisecond, Until: 41 * units.Millisecond},
	}}
	res, err := gcm.RunCoupled(2*d.Tiles(), 1, cfg, 12, gcm.ParallelOpts{Fault: crash, CheckpointEvery: 3}, nil, nil)
	if got := observeRun(t, res, err).Digest; got != want["digest/inline"] {
		t.Errorf("crashed coupled run: state digest %s, golden %s", got, want["digest/inline"])
	}
	if res.Recovery.Restarts != 1 || res.Recovery.Checkpoints == 0 {
		t.Errorf("crashed coupled run: recovery accounting is vacuous: %+v", res.Recovery)
	}
}
