// Command hyades is the general driver for the simulated cluster: it
// runs the ocean or atmosphere isomorph (or the small gyre case) on a
// chosen machine configuration and reports timing, sustained rate and
// solver statistics.
//
//	hyades -model ocean -nodes 8 -ppn 2 -steps 20
//	hyades -model atmosphere -net ge -steps 10   (modelled Gigabit Ethernet)
//	hyades -model gyre -serial -steps 200
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hyades/internal/comm"
	"hyades/internal/fault"

	"hyades/internal/gcm"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/netmodel"
	"hyades/internal/prof"
	"hyades/internal/report"
	"hyades/internal/units"
)

func main() {
	model := flag.String("model", "ocean", "ocean | atmosphere | gyre")
	nodes := flag.Int("nodes", 8, "SMP count (Hyades machine)")
	ppn := flag.Int("ppn", 2, "processors per SMP")
	netName := flag.String("net", "", "run over a modelled interconnect instead: fe | ge | hpvm")
	serial := flag.Bool("serial", false, "single-processor serial run")
	steps := flag.Int("steps", 10, "timed steps")
	warmup := flag.Int("warmup", 2, "untimed warm-up steps")
	saveTo := flag.String("checkpoint", "", "write a checkpoint here after a -serial run")
	restoreFrom := flag.String("restore", "", "restore a -serial run from this checkpoint before stepping")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault plan")
	dropRate := flag.Float64("drop-rate", 0, "per-packet silent drop probability on every fabric link")
	corruptRate := flag.Float64("corrupt-rate", 0, "per-packet corruption probability on every fabric link")
	linkOutage := flag.String("link-outage", "", "comma-separated LINK[:FROM_US[-UNTIL_US]] outage windows (LINK may end in * as a prefix wildcard)")
	nodeOutage := flag.String("node-outage", "", "comma-separated NODE[:FROM_US[-UNTIL_US]] whole-node crash windows (NODE may end in * or be *; no UNTIL means permanent)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "save a coordinated checkpoint every N model steps (0 = never; required to survive node crashes)")
	digest := flag.Bool("digest", false, "print a SHA-256 over the final model state (the survival-contract observable)")
	profiles := prof.Flags()
	flag.Parse()
	defer profiles.Start()()

	fcfg := fault.Config{Seed: *faultSeed, DropRate: *dropRate, CorruptRate: *corruptRate}
	if *linkOutage != "" {
		outages, err := fault.ParseOutages(*linkOutage)
		if err != nil {
			log.Fatal(err)
		}
		fcfg.Outages = outages
	}
	if *nodeOutage != "" {
		outages, err := fault.ParseNodeOutages(*nodeOutage)
		if err != nil {
			log.Fatal(err)
		}
		fcfg.NodeOutages = outages
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := badSteps(*steps, *warmup, *checkpointEvery); err != nil {
		usage(err)
	}
	if err := ignoredFlag(set, *serial, *netName != "", *dropRate > 0 || *corruptRate > 0); err != nil {
		usage(err)
	}

	workers := *nodes * *ppn
	if *serial {
		workers = 1
	}
	d := decompFor(*model, workers)
	cfg := configFor(*model, d)

	if *serial {
		ep := &comm.Serial{}
		m, err := gcm.New(cfg, ep)
		if err != nil {
			log.Fatal(err)
		}
		if *restoreFrom != "" {
			f, err := os.Open(*restoreFrom)
			if err != nil {
				log.Fatal(err)
			}
			err = gcm.RestoreWhole(m, f)
			f.Close()
			if err != nil {
				log.Fatalf("restore from %s: %v", *restoreFrom, err)
			}
			fmt.Printf("restored from %s at step %d\n", *restoreFrom, m.Steps)
		}
		start := ep.Now()
		m.Run(*steps)
		elapsed := ep.Now() - start
		fmt.Printf("%s: %d serial steps in %v of simulated time (%v/step)\n",
			cfg.Name, *steps, elapsed, elapsed/units.Time(*steps))
		fmt.Printf("sustained: %.1f MFlop/s; mean Ni = %.0f; flops: PS=%d DS=%d\n",
			float64(m.C.PS+m.C.DS)/elapsed.Seconds()/1e6, m.Solver.MeanIters(), m.C.PS, m.C.DS)
		if *saveTo != "" {
			if err := saveCheckpoint(m, *saveTo); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("checkpoint written to %s (step %d)\n", *saveTo, m.Steps)
		}
		if *digest {
			h := sha256.New()
			if err := m.Checkpoint(h); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("state digest: %x\n", h.Sum(nil))
		}
		return
	}

	var res *gcm.Result
	var err error
	machine := fmt.Sprintf("Hyades %dx%d", *nodes, *ppn)
	if *netName != "" {
		prm, perr := netParams(*netName)
		if perr != nil {
			log.Fatal(perr)
		}
		machine = prm.Name
		res, err = gcm.RunParallelNet(prm, cfg, *warmup, *steps)
	} else {
		res, err = gcm.RunParallelOpts(*nodes, *ppn, cfg, *warmup, *steps,
			gcm.ParallelOpts{Fault: fcfg, CheckpointEvery: *checkpointEvery})
	}
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable(fmt.Sprintf("%s on %s (%d workers)", cfg.Name, machine, d.Tiles()),
		"metric", "value")
	t.Addf("steps|%d", res.Steps)
	t.Addf("simulated time/step|%v", res.PerStep())
	t.Addf("sustained rate|%.1f MFlop/s", res.SustainedMFlops())
	t.Addf("mean CG iterations Ni|%.0f", res.MeanNi)
	t.Addf("compute time (all workers)|%v", res.ComputeTime)
	t.Addf("exchange time (all workers)|%v", res.ExchangeTime)
	t.Addf("global-sum time (all workers)|%v", res.GsumTime)
	comm := res.ExchangeTime + res.GsumTime
	t.Addf("communication fraction|%.1f%%", 100*float64(comm)/float64(comm+res.ComputeTime))
	if c := res.Counters; res.Events > 0 {
		t.Addf("events / dispatched / process resumes / continued|%d / %d / %d / %d", res.Events, c.Dispatched, c.Resumes, c.Continued)
		t.Addf("slots reserved / materialised|%d / %d", c.SlotsReserved, c.SlotsMaterialised)
	}
	if fcfg.Enabled() {
		rel, net := res.Fault, res.Net
		t.Addf("fault drops / corruptions / outage drops|%d / %d / %d",
			net.FaultDropped, net.FaultCorrupted, net.OutageDropped)
		t.Addf("retransmits / timeouts|%d / %d", rel.Retransmits, rel.Timeouts)
		t.Addf("dup suppressed / gap dropped|%d / %d", rel.DupSuppressed, rel.GapDropped)
		t.Addf("adaptive fail-overs|%d", net.FailedOver)
		t.Addf("goodput|%.1f%% of %d wire bytes",
			report.Goodput(net.PayloadBytes, net.WireBytes), net.WireBytes)
	}
	if res.Recovery.Enabled {
		addAvailability(t, res.Recovery)
	}
	fmt.Print(t)
	if *digest {
		h := sha256.New()
		for r, m := range res.Models {
			if err := m.Checkpoint(h); err != nil {
				log.Fatalf("rank %d: %v", r, err)
			}
		}
		fmt.Printf("state digest: %x\n", h.Sum(nil))
	}
}

// addAvailability appends the crash-recovery rows: the node losses
// survived, what they cost and what the checkpoint insurance cost.
func addAvailability(t *report.Table, r gcm.RecoveryResult) {
	t.Addf("node restarts survived|%d", r.Restarts)
	t.Addf("recovery overhead (virtual)|%s", report.Micros(r.RecoveryTime.Micros()))
	t.Addf("lost virtual time / replayed flops|%s / %d", report.Micros(r.LostVirtual.Micros()), r.LostFlops)
	t.Addf("checkpoints committed|%d (%d bytes)", r.Checkpoints, r.CheckpointBytes)
	if r.PendingDiscarded > 0 {
		t.Addf("checkpoint rounds discarded mid-crash|%d", r.PendingDiscarded)
	}
}

// fileBuffer is the write buffer of a checkpoint file: the model
// streams in chunks of a few KiB, and the file takes them a MiB at a
// time.
const fileBuffer = 1 << 20

// saveCheckpoint writes m's checkpoint to the file path.
func saveCheckpoint(m *gcm.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, fileBuffer)
	err = m.Checkpoint(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usage reports a flag that the run cannot honour, prints the flag
// summary and exits with status 2, as a flag that fails to parse does.
func usage(err error) {
	fmt.Fprintf(flag.CommandLine.Output(), "hyades: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

// badSteps refuses step counts a run cannot take: every run reports
// per-step time and a sustained rate over its timed steps, a negative
// warm-up would eat into them, and a negative cadence would mean never.
func badSteps(steps, warmup, checkpointEvery int) error {
	switch {
	case steps < 1:
		return fmt.Errorf("-steps %d: a run needs at least one timed step", steps)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: a warm-up cannot be negative", warmup)
	case checkpointEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: a cadence cannot be negative (0 = never)", checkpointEvery)
	}
	return nil
}

// ignoredFlag names the first explicitly set flag that the chosen run
// never reads: a -serial run has no warm-up, checkpoint cadence or
// machine; a -net run has no checkpoints; only a -serial run writes or
// restores a checkpoint file; faults are injected into the Arctic
// fabric, which neither a -serial nor a -net run has; and only a drop
// or corrupt rate draws from the streams -fault-seed seeds (seeded), as
// outages and node crashes are deterministic.
func ignoredFlag(set map[string]bool, serial, net, seeded bool) error {
	faults := []string{"fault-seed", "drop-rate", "corrupt-rate", "link-outage", "node-outage"}
	run, ignored := "parallel Hyades", []string{"checkpoint", "restore"}
	switch {
	case serial:
		run, ignored = "-serial", append([]string{"warmup", "checkpoint-every", "nodes", "ppn", "net"}, faults...)
	case net:
		run, ignored = "-net", append([]string{"checkpoint-every", "checkpoint", "restore"}, faults...)
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s has no effect on a %s run: drop it", name, run)
		}
	}
	if set["fault-seed"] && !seeded {
		return fmt.Errorf("-fault-seed has no effect without a -drop-rate or -corrupt-rate above 0: drop it")
	}
	return nil
}

func decompFor(model string, workers int) tile.Decomp {
	nx, ny := 128, 64
	if model == "gyre" {
		nx, ny = 64, 64
	}
	px, py := bestSplit(workers)
	return tile.Decomp{NXg: nx, NYg: ny, Px: px, Py: py, PeriodicX: model != "gyre"}
}

// bestSplit factors the worker count into a near-square tile grid with
// even periodic rings.
func bestSplit(n int) (px, py int) {
	px, py = n, 1
	for p := 1; p*p <= n; p++ {
		if n%p == 0 {
			q := n / p
			if q%2 == 0 || q == 1 {
				px, py = q, p
			}
		}
	}
	return px, py
}

func configFor(model string, d tile.Decomp) gcm.Config {
	switch strings.ToLower(model) {
	case "ocean":
		return gcm.CoarseOceanConfig(d)
	case "atmosphere", "atm":
		cfg := gcm.CoarseAtmosphereConfig(d)
		cfg.Forcing = physics.New(physics.Default())
		return cfg
	case "gyre":
		return gcm.GyreConfig(d.NXg, d.NYg, 4, d)
	default:
		log.Fatalf("unknown model %q", model)
		return gcm.Config{}
	}
}

func netParams(name string) (netmodel.Params, error) {
	switch strings.ToLower(name) {
	case "fe", "fastethernet":
		return netmodel.FastEthernet(), nil
	case "ge", "gigabit":
		return netmodel.GigabitEthernet(), nil
	case "hpvm", "myrinet":
		return netmodel.MyrinetHPVM(), nil
	default:
		return netmodel.Params{}, fmt.Errorf("unknown network %q (want fe, ge or hpvm)", name)
	}
}
