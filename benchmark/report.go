package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hyades/internal/units"
)

// checkRecord is the deterministic fingerprint of a run's check window.
type checkRecord struct {
	Digest string `json:"digest"`
	SimPs  int64  `json:"sim_ps"`
	Events int64  `json:"events"`
}

// expectedFile pins the seed-1 fingerprints of every workload, per
// scale.  Regenerate (only for a deliberate change of simulated
// behaviour) with: go run ./benchmark -update-expected
type expectedFile struct {
	Seed uint64                 `json:"seed"`
	Full map[string]checkRecord `json:"full"`
	Tiny map[string]checkRecord `json:"tiny"`
}

//go:embed expected.json
var expectedJSON []byte

const expectedSeed = 1

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("benchmark/expected.json: %w", err)
	}
	return &e, nil
}

func (e *expectedFile) lookup(sc scale, name string) (checkRecord, bool) {
	m := e.Full
	if sc.tiny {
		m = e.Tiny
	}
	r, ok := m[name]
	return r, ok
}

// outcome is the result of one run of one workload.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// Printed only with -extras (the suite asks for them).
	Check *checkRecord `json:"check,omitempty"`
	Notes []string     `json:"notes,omitempty"`

	// raw keeps every value computed, for the suite and the test.
	raw map[string]float64
	tr  *tracer
}

// runConfig is everything one run needs.
type runConfig struct {
	seed         uint64
	seconds      float64
	traced       bool
	sc           scale
	probeSeconds float64 // per probe; 0 skips the probes
	extras       bool
	setupSeconds float64 // budget of the extra set-up samples
}

// Set-up is repeated so that setup_s is not one sample: at least
// minSetups of them, and more (up to maxSetups) while they are cheap.
// With fewer than ten samples their lower decile is the fastest one.
const (
	minSetups = 3
	maxSetups = 9
)

// defaultSetupSeconds is what the set-up samples beyond minSetups may
// cost in all.
const defaultSetupSeconds = 0.5

func moreSetups(done []float64, budget float64) bool {
	var sum float64
	for _, s := range done {
		sum += s
	}
	return len(done) < minSetups || len(done) < maxSetups && sum < budget
}

// undisturbed is the quantile of the timed blocks (and of the set-up
// samples) that a run reports as its time: the lower decile, not the
// median.  The host is a few cores of a shared machine, and what the
// neighbours do to it only ever adds time: for half a minute at a
// stretch every block runs 40 % slower, and the median of a run that
// falls into such a stretch reads 40 % high (measured: ocean_serial and
// ocean16, +42 % and +41 %) while its lower decile reads 15 % high, and
// that of a run the stretch only partly covers does not move.  The
// median and the p90 are printed beside it, so what the lower decile
// hides — a stall every few blocks — still shows.
const undisturbed = 0.1

// tracedShare is the part of the requested seconds a traced run spends
// on the workload; the layer probes get the rest.
const tracedShare = 1.0 / 3

// runWorkload runs w once as the driver contract asks: reference
// session, set-up repetitions, the measured session, the output check,
// and (traced) the layer probes.
func runWorkload(w *workload, rc runConfig) (*outcome, error) {
	in := generate(w, rc.seed, rc.sc)
	meas := sessionOpts{workers: 0, budget: time.Duration(rc.seconds * float64(time.Second))}
	ref := sessionOpts{workers: -1, blocks: 1}
	if rc.traced {
		meas.workers, meas.traced = -1, true
		meas.budget = time.Duration(float64(meas.budget) * tracedShare)
		ref.workers = 0
	}

	out := &outcome{raw: map[string]float64{}}
	var refRes, res *sessionResult
	var setupS []float64
	var rss float64
	var err error
	if w.recover {
		res, rss, setupS, err = runRecover(w, in, rc.sc, meas, rc.setupSeconds)
		if err != nil {
			return nil, err
		}
	} else {
		rss, err = withoutGC(func() (err error) {
			refRes, err = runSession(w, in, ref)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("reference session: %w", err)
		}
		so := meas
		so.setupOnly = true
		// The measured session's own set-up is the last sample.
		for moreSetups(append(setupS, 0), rc.setupSeconds) {
			r, err := runSession(w, in, so)
			if err != nil {
				return nil, fmt.Errorf("set-up session: %w", err)
			}
			setupS = append(setupS, r.setup.Seconds())
			releaseHeap()
		}
		if res, err = runSession(w, in, meas); err != nil {
			return nil, fmt.Errorf("measured session: %w", err)
		}
		setupS = append(setupS, res.setup.Seconds())
	}
	out.tr = res.tr

	// ---- output check ----
	rec := checkRecord{Digest: res.digest, SimPs: res.win.simPs, Events: res.win.events}
	out.Check = &rec
	out.Attempted, out.Failed = res.attempted, res.failed
	out.Notes = res.notes
	if refRes != nil {
		if got := (checkRecord{refRes.digest, refRes.win.simPs, refRes.win.events}); got != rec {
			out.Notes = append(out.Notes, fmt.Sprintf("traced and untraced execution disagree: %+v vs %+v", rec, got))
			out.Failed = out.Attempted
		}
		out.Failed += refRes.failed
	}
	if rc.seed == expectedSeed {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		if want, ok := exp.lookup(rc.sc, w.name); !ok {
			out.Notes = append(out.Notes, "no entry in expected.json")
			out.Failed = out.Attempted
		} else if want != rec {
			out.Notes = append(out.Notes, fmt.Sprintf("differs from expected.json: got %+v, want %+v", rec, want))
			out.Failed = out.Attempted
		}
	}
	if out.Failed > out.Attempted {
		out.Failed = out.Attempted
	}
	out.Correct = out.Failed == 0

	// ---- metrics ----
	v := out.raw
	wallUs := float64(res.wall()) / 1e3
	ops := float64(res.ops)
	v["setup_s"] = quantile(setupS, undisturbed)
	per := make([]float64, len(res.blocks))
	for i, b := range res.blocks {
		per[i] = float64(b) / 1e3 / float64(res.blockOps)
	}
	v["wall_us_per_op"] = quantile(per, undisturbed)
	v["run.block_p50_us_per_op"] = median(per)
	v["run.block_p90_us_per_op"] = quantile(per, 0.9)
	v["run.mean_us_per_op"] = wallUs / ops
	v["run.samples"] = float64(len(per))
	v["run.steps_per_sec"] = ops / (wallUs / 1e6)
	if w.opSeconds > 0 {
		years := ops * w.opSeconds / (360 * 86400)
		v["run.model_years_per_wall_hour"] = years / (wallUs / 1e6 / 3600)
	}
	if rc.traced {
		// The model counts packets at the call that sends them, the fabric
		// at delivery, so the two differ by what is in flight at the
		// window's edges (0.02 % today); more means the protocol changed.
		if got, want := float64(res.win.model.packets()), float64(res.win.net.Packets); res.win.model.ppn > 0 && math.Abs(got-want) > 0.01*want {
			out.Notes = append(out.Notes, fmt.Sprintf("traffic model counted %.0f packets in the check window, the fabric delivered %.0f: arctic.hops_per_packet is off", got, want))
		}
		layerMetrics(v, w, res, refRes)
		if rc.probeSeconds > 0 {
			releaseHeap()
			runProbes(v, time.Duration(rc.probeSeconds*float64(time.Second)))
			ledgerPrediction(v, w)
		}
		out.Metrics = fill(perLayer, v)
	} else {
		v["peak_rss_mb"] = rss
		out.Metrics = fill(endToEnd, v)
	}
	if rc.extras {
		for name, val := range fill(extras, v) {
			out.Metrics[name] = val
		}
		for name, val := range fill(ledgerInputs, v) {
			out.Metrics[name] = val
		}
	} else {
		out.Check, out.Notes = nil, nil
	}
	return out, nil
}

// ledgerInputs are the per-op counts ledgerPrediction multiplies by the
// probes' unit costs; a traced child prints them (with -extras) so the
// suite can apply probes it ran once.
var ledgerInputs = []metricDef{
	{Name: "ledger.in.stack_us_per_op", Unit: "us"},
	{Name: "ledger.in.pio_msgs_per_op", Unit: "count"},
	{Name: "ledger.in.dma_kib_per_op", Unit: "KiB"},
	{Name: "ledger.in.extra_hops_per_op", Unit: "count"},
	{Name: "ledger.in.delays_per_op", Unit: "count"},
	{Name: "ledger.in.handoffs_per_op", Unit: "count"},
}

// layerMetrics fills the per-layer values a traced session measured.
func layerMetrics(v map[string]float64, w *workload, res, ref *sessionResult) {
	win := &res.win
	wops := float64(win.ops)
	ops := float64(res.ops)
	wallNsPerOp := float64(res.wall()) / ops
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}

	v["sim_us_per_op"] = simUsPerOp(win)
	if w.paper != nil {
		ours := w.paper.ours(win)
		v["sim_err_pct"] = 100 * math.Abs(ours-w.paper.value) / w.paper.value
	}

	// des
	v["des.events_per_op"] = float64(win.events) / wops
	if win.events > 0 {
		v["des.wall_ns_per_event"] = wallNsPerOp / v["des.events_per_op"]
		v["des.events_per_sec"] = 1e9 / v["des.wall_ns_per_event"]
	}

	// arctic
	v["arctic.packets_per_op"] = float64(win.net.Packets) / wops
	v["arctic.payload_bytes_per_op"] = float64(win.net.PayloadBytes) / wops
	v["arctic.goodput_pct"] = pct(float64(win.net.PayloadBytes), float64(win.net.WireBytes))
	if n := win.model.packets(); n > 0 {
		v["arctic.hops_per_packet"] = float64(win.model.crossings) / float64(n)
	}

	// startx, comm recovery and gcm recovery counters (recover4 only)
	v["startx.retransmits_per_op"] = float64(win.retransmits) / wops
	v["startx.timeouts_per_op"] = float64(win.timeouts) / wops
	v["comm.restarts"] = float64(win.restarts)
	v["comm.checkpoint_rounds"] = float64(win.ckRounds)
	if win.ckRounds > 0 {
		v["comm.checkpoint_bytes_per_round"] = float64(win.ckBytes) / float64(win.ckRounds)
	}
	v["comm.pending_discarded"] = float64(win.ckDiscards)
	v["gcm.sim_lost_ms"] = units.Time(win.lostPs).Millis()
	flops := float64(win.body.flopsPS + win.body.flopsDS)
	v["gcm.lost_flops_pct"] = pct(float64(win.lostFlops), flops)

	// comm
	v["comm.exchanges_per_op"] = float64(win.comm.Exchanges) / wops
	v["comm.gsums_per_op"] = float64(win.comm.GlobalSums) / wops
	v["comm.bytes_sent_per_op"] = float64(win.comm.BytesSent) / wops
	simAll := float64(win.comm.ComputeTime + win.comm.ExchangeTime + win.comm.GsumTime + win.comm.BarrierTime)
	v["comm.sim_exchange_pct"] = pct(float64(win.comm.ExchangeTime), simAll)
	v["comm.sim_gsum_pct"] = pct(float64(win.comm.GsumTime), simAll)
	v["comm.sim_compute_pct"] = pct(float64(win.comm.ComputeTime), simAll)

	// cluster
	v["cluster.build_ms"] = float64(res.build) / 1e6
	v["cluster.close_ms"] = float64(res.closing) / 1e6

	// gcm counts
	v["gcm.flops_ps_per_op"] = float64(win.body.flopsPS) / wops
	v["gcm.flops_ds_per_op"] = float64(win.body.flopsDS) / wops
	if win.body.solves > 0 {
		v["gcm.cg_iters_per_step"] = float64(win.body.cgIters) / float64(win.body.solves)
	}
	v["gcm.host_mflops"] = flops / wops / (wallNsPerOp / 1e3)

	// host
	h := res.host
	v["host.allocs_per_op"] = float64(h.mallocs) / ops
	v["host.alloc_bytes_per_op"] = float64(h.bytes) / ops
	v["host.gc_cycles"] = float64(h.gcs)
	v["host.cpu_user_s"] = h.user.Seconds()
	v["host.cpu_sys_s"] = h.sys.Seconds()
	v["host.cpu_util"] = (h.user + h.sys).Seconds() / res.wall().Seconds()

	// traced self times and the ledger
	tr := res.tr
	usPerOp := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	v["comm.exchange_self_us_per_op"] = usPerOp(tr.stackNs[primExchange])
	v["comm.gsum_self_us_per_op"] = usPerOp(tr.stackNs[primGsum])
	v["comm.barrier_self_us_per_op"] = usPerOp(tr.stackNs[primBarrier])
	v["comm.busy_self_us_per_op"] = usPerOp(tr.stackNs[primBusy])
	v["comm.exec_wait_self_us_per_op"] = usPerOp(tr.stackNs[primExec])
	v["gcm.kernel_self_us_per_op"] = usPerOp(tr.kernelNs)
	v["gcm.driver_self_us_per_op"] = usPerOp(tr.driverNs)
	total := float64(tr.totalNs())
	stack := total - float64(tr.kernelNs+tr.driverNs)
	v["ledger.kernel_pct"] = pct(float64(tr.kernelNs), total)
	v["ledger.driver_pct"] = pct(float64(tr.driverNs), total)
	v["ledger.stack_pct"] = pct(stack, total)

	m := &win.model
	v["ledger.in.stack_us_per_op"] = stack / 1e3 / ops
	v["ledger.in.pio_msgs_per_op"] = float64(m.pioMsgs) / wops
	v["ledger.in.dma_kib_per_op"] = float64(m.dmaBytes) / 1024 / wops
	v["ledger.in.extra_hops_per_op"] = float64(m.crossings-2*m.packets()) / wops
	v["ledger.in.delays_per_op"] = float64(tr.calls[primBusy]+tr.calls[primExec]) / ops
	v["ledger.in.handoffs_per_op"] = 2 * float64(m.intraExch) / wops

	// Tracing overhead over the check window: the reference session ran
	// the same block untraced on the worker pool.
	if ref != nil && len(ref.blocks) > 0 && len(res.blocks) > 0 {
		v["trace.overhead_pct"] = 100 * (float64(res.blocks[0])/float64(ref.blocks[0]) - 1)
	}
}

// ledgerPrediction is the host-cost analogue of the paper's sec. 5.3
// validation: the stack time predicted from the workload's exact counts
// and the probes' unit costs, against the stack time the trace measured.
//
//	predicted = PIO messages x startx.pio_ns_per_msg
//	          + DMA KiB      x startx.dma_ns_per_kib
//	          + link crossings beyond the probes' own 2-link route x arctic.ns_per_hop
//	          + Busy and Exec calls x des.delay_ns
//	          + intra-SMP handoffs  x des.handoff_ns
func ledgerPrediction(v map[string]float64, w *workload) {
	hop := v["arctic.ns_per_hop.16"]
	if w.nodes > 16 {
		hop = v["arctic.ns_per_hop.64"]
	}
	ns := v["ledger.in.pio_msgs_per_op"]*v["startx.pio_ns_per_msg"] +
		v["ledger.in.dma_kib_per_op"]*v["startx.dma_ns_per_kib"] +
		v["ledger.in.extra_hops_per_op"]*hop +
		v["ledger.in.delays_per_op"]*v["des.delay_ns"] +
		v["ledger.in.handoffs_per_op"]*v["des.handoff_ns"]
	v["ledger.predicted_stack_us_per_op"] = ns / 1e3
	if stack := v["ledger.in.stack_us_per_op"]; stack > 0 {
		v["ledger.residual_pct"] = 100 * (stack - ns/1e3) / stack
	}
}

// withoutGC runs the reference with the collector off and records the
// process's peak RSS after it.  With the collector on, the peak depends
// on whether a cycle happened to finish before the last allocation (on
// ocean16 it reads anywhere from 48 to 56 MiB); with it off, the peak is
// everything set-up and the check window allocate — the same ops on
// every run, so the figure repeats to within a percent — and it is the
// value the collector-on runs top out at.  The reference is the first
// thing a process runs, so nothing else has touched the high-water mark.
func withoutGC(reference func() error) (peakMiB float64, err error) {
	gc := debug.SetGCPercent(-1)
	err = reference()
	peakMiB = peakRSSMiB()
	debug.SetGCPercent(gc)
	releaseHeap()
	return peakMiB, err
}

// releaseHeap returns a finished session's memory to the system, so
// that each session starts from the same heap and the peak RSS of the
// process is that of its largest session, not of their leftovers.
func releaseHeap() { debug.FreeOSMemory() }

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
