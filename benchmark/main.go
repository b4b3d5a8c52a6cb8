// Command benchmark is the repository's one benchmark: seven workloads
// over the simulated Hyades machine, end-to-end metrics from an untraced
// run, a host-cost ledger per layer from a traced run and the layer
// probes, and an output check on every run.  See README.md.
//
//	go run ./benchmark                       every workload, every metric
//	go run ./benchmark -workload gsum16      one workload
//	go run ./benchmark -out run.json         also write the results as JSON
//	go run ./benchmark -compare A.json B.json
//
// The driver form runs one workload once and prints one JSON object as
// the last line of standard output:
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// suiteSeconds is the timed region of each workload when the whole
// suite runs; the traced run and the probes share the same budget
// again (a third to the workload, see tracedShare).
const suiteSeconds = 10

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all seven)")
		seed     = flag.Uint64("seed", expectedSeed, "workload seed")
		seconds  = flag.Float64("seconds", 0, "seconds to measure for; setting it selects the one-run driver form")
		trace    = flag.Int("trace", 0, "driver form: 0 = untraced run, end-to-end metrics; 1 = traced run and probes, per-layer metrics")
		out      = flag.String("out", "", "write the suite's results to this JSON file")
		scaleStr = flag.String("scale", "full", "workload scale: full or tiny (smoke test)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
		spans    = flag.String("spans", "", "driver form, traced: write the span list to this JSON file")
		extra    = flag.Bool("extras", false, "driver form: also print block statistics, the check record and notes")
		probeS   = flag.Float64("probe-seconds", -1, "seconds per layer probe (default: 1 in the suite, a share of -seconds in the driver form; 0 skips)")
		update   = flag.Bool("update-expected", false, "rewrite benchmark/expected.json from this tree at seed 1")
	)
	flag.Parse()
	sc := scale{tiny: *scaleStr == "tiny"}
	if *scaleStr != "full" && !sc.tiny {
		fatal(fmt.Errorf("unknown -scale %q", *scaleStr))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *update:
		if err := updateExpected(); err != nil {
			fatal(err)
		}
	case *seconds > 0:
		if err := driverRun(*name, *seed, *seconds, *trace != 0, sc, *probeS, *extra, *spans); err != nil {
			fatal(err)
		}
	default:
		ok, err := suite(*name, *seed, sc, *probeS, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// driverRun is the one-run form of the driver contract.
func driverRun(name string, seed uint64, seconds float64, traced bool, sc scale, probeS float64, extras bool, spans string) error {
	w, err := findWorkload(workloads(sc), name)
	if err != nil {
		return err
	}
	if probeS < 0 {
		// The probes share what the traced workload leaves of -seconds.
		probeS = seconds * (1 - tracedShare) / nProbes
	}
	res, err := runWorkload(w, runConfig{
		seed: seed, seconds: seconds, traced: traced, sc: sc,
		probeSeconds: probeS, extras: extras, setupSeconds: defaultSetupSeconds,
	})
	if err != nil {
		return err
	}
	if spans != "" && res.tr != nil {
		if err := res.tr.writeSpans(spans); err != nil {
			return err
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", w.name+":", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// hostHeader describes where a suite ran.
type hostHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	LoadAvg    string `json:"load_average"`
}

func readHostHeader() hostHeader {
	h := hostHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	// go run does not stamp the binary with the revision; ask git, and
	// stay "unknown" outside a work tree.
	if blob, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Revision = strings.TrimSpace(string(blob))
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.Join(strings.Fields(string(blob))[:3], " ")
	}
	return h
}

// workloadResult is one workload's part of a suite result.
type workloadResult struct {
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"ops_attempted"`
	Failed    int64       `json:"ops_failed"`
	EndToEnd  metrics     `json:"end_to_end"`
	Extras    metrics     `json:"extras"`
	PerLayer  metrics     `json:"per_layer"`
	Check     checkRecord `json:"check"`
	Notes     []string    `json:"notes,omitempty"`
}

// suiteResult is what -out writes and -compare reads.
type suiteResult struct {
	Host      hostHeader                 `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     string                     `json:"scale"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Order     []string                   `json:"order"`
}

// child runs one workload once in its own process, so that peak RSS
// and set-up time belong to that workload alone.
func child(w *workload, seed uint64, seconds float64, traced bool, sc scale) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", t, "-extras", "-probe-seconds", "0",
	}
	if sc.tiny {
		args = append(args, "-scale", "tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, t, err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): bad result line: %w", w.name, t, err)
	}
	return &res, nil
}

// suite runs the chosen workloads (all by default): each untraced, then
// traced at a third of the length, then the layer probes once; prints
// every metric by name and unit; and reports whether all outputs were
// correct.
func suite(only string, seed uint64, sc scale, probeS float64, outPath string) (bool, error) {
	ws := workloads(sc)
	if only != "" {
		w, err := findWorkload(ws, only)
		if err != nil {
			return false, err
		}
		ws = []*workload{w}
	}
	seconds := float64(suiteSeconds)
	if sc.tiny {
		seconds = 0.2
	}
	if probeS < 0 {
		probeS = 1
		if sc.tiny {
			probeS = 0.02
		}
	}
	sr := &suiteResult{Host: readHostHeader(), Seed: seed, Seconds: seconds, Scale: "full", Workloads: map[string]*workloadResult{}}
	if sc.tiny {
		sr.Scale = "tiny"
	}
	fmt.Printf("# hyades benchmark: seed %d, %g s per workload, scale %s\n", seed, seconds, sr.Scale)
	fmt.Printf("# host: nproc %d, GOMAXPROCS %d, %s, revision %s, load %s\n",
		sr.Host.NProc, sr.Host.GOMAXPROCS, sr.Host.GoVersion, sr.Host.Revision, sr.Host.LoadAvg)

	probes := map[string]float64{}
	if probeS > 0 {
		fmt.Printf("# layer probes, %g s each\n", probeS)
		runProbes(probes, secondsDuration(probeS))
	}
	allOK := true
	for _, w := range ws {
		plain, err := child(w, seed, seconds, false, sc)
		if err != nil {
			return false, err
		}
		traced, err := child(w, seed, seconds, true, sc)
		if err != nil {
			return false, err
		}
		wr := &workloadResult{
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted,
			Failed:    plain.Failed + traced.Failed,
			EndToEnd:  metrics{}, Extras: metrics{}, PerLayer: metrics{},
			Notes: append(plain.Notes, traced.Notes...),
		}
		if plain.Check != nil {
			wr.Check = *plain.Check
		}
		if plain.Check != nil && traced.Check != nil && *plain.Check != *traced.Check {
			wr.Correct = false
			wr.Failed = wr.Attempted
			wr.Notes = append(wr.Notes, "the traced and untraced child runs disagree on the check record")
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = plain.Metrics[d.Name]
		}
		for _, d := range extras {
			wr.Extras[d.Name] = plain.Metrics[d.Name]
		}
		// Per-layer: the traced child's values, the parent's probes, and
		// the two numbers that need both.
		v := map[string]float64{}
		for name, m := range traced.Metrics {
			v[name] = m.Value
		}
		for name, p := range probes {
			v[name] = p
		}
		if probeS > 0 {
			ledgerPrediction(v, w)
		}
		if base := plain.Metrics["run.mean_us_per_op"].Value; base > 0 {
			v["trace.overhead_pct"] = 100 * (traced.Metrics["run.mean_us_per_op"].Value/base - 1)
		}
		wr.PerLayer = fill(perLayer, v)
		sr.Workloads[w.name] = wr
		sr.Order = append(sr.Order, w.name)
		printWorkload(w, wr)
		allOK = allOK && wr.Correct
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(sr, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if !allOK {
		fmt.Println("# FAILED: some outputs were not correct")
	}
	return allOK, nil
}

func printWorkload(w *workload, wr *workloadResult) {
	fmt.Printf("\n== %s: %s\n", w.name, w.why)
	fmt.Printf("   ops_attempted %d   ops_failed %d   correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
	for _, n := range wr.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	if w.paper == nil {
		fmt.Println("   unvalidated: the paper publishes no reference for this workload; pinned by digest")
	} else {
		fmt.Printf("   reference: %s = %g %s\n", w.paper.what, w.paper.value, w.paper.unit)
	}
	row := func(d metricDef, m metrics) {
		fmt.Printf("   %-38s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
	for _, d := range endToEnd {
		row(d, wr.EndToEnd)
	}
	for _, d := range extras {
		row(d, wr.Extras)
	}
	for _, d := range perLayer {
		row(d, wr.PerLayer)
	}
}

// updateExpected records the seed-1 check records of every workload at
// both scales.
func updateExpected() error {
	e := expectedFile{Seed: expectedSeed, Full: map[string]checkRecord{}, Tiny: map[string]checkRecord{}}
	for _, sc := range []scale{{tiny: true}, {}} {
		into := e.Full
		if sc.tiny {
			into = e.Tiny
		}
		for _, w := range workloads(sc) {
			rec, err := checkOnly(w, sc)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			into[w.name] = rec
			fmt.Fprintf(os.Stderr, "%s (tiny=%v): %+v\n", w.name, sc.tiny, rec)
		}
	}
	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("benchmark/expected.json", append(blob, '\n'), 0o644)
}

// checkOnly runs just the check window (one block) of w at the expected
// seed.
func checkOnly(w *workload, sc scale) (checkRecord, error) {
	in := generate(w, expectedSeed, sc)
	opt := sessionOpts{workers: -1, blocks: 1}
	var res *sessionResult
	var err error
	if w.recover {
		opt.blocks = -1
		res, _, _, err = runRecover(w, in, sc, opt, 0)
	} else {
		res, err = runSession(w, in, opt)
	}
	if err != nil {
		return checkRecord{}, err
	}
	return checkRecord{res.digest, res.win.simPs, res.win.events}, nil
}
