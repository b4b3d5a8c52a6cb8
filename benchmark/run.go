package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/units"
)

// A run of one workload is a sequence of sessions.  Each session builds
// the machine and the model from scratch, warms up, and then executes
// timed blocks of ops:
//
//  1. a reference session in the *other* execution mode (inline
//     Workers: -1 for an untraced run, the worker pool for a traced
//     one), run for one block: its digest, virtual clock and event
//     count are what the measured session must reproduce;
//  2. set-up-only sessions, so setup_s is not one sample;
//  3. the measured session, which runs blocks until the requested
//     seconds are spent.
//
// Every block is the same blockOps ops on the same state: after the
// warm-up each rank keeps a copy of its state, and puts it back before
// every block but the first.  A model's cost per step follows its
// solver's iteration count, which wanders by a fifth over a few hundred
// steps, so blocks cut from one long integration are not samples of one
// quantity and how many of them a run reaches depends on the host's
// speed; repeated blocks are, and what is left between them is the
// host.  The first block is the check window: everything deterministic
// (the state digest, simulated time, event, packet, exchange and flop
// counts) is taken over it.  Wall time is taken over all blocks.

// rankSnap is one rank's cumulative accounting at a window edge.
type rankSnap struct {
	comm comm.Stats
	body bodyCounts
}

// globalSnap is the machine's cumulative accounting at a window edge,
// read by rank 0.
type globalSnap struct {
	events uint64
	now    units.Time
	net    arctic.Stats
}

// window is the exact accounting of the check window.
type window struct {
	ops    int64
	simPs  int64
	events int64
	net    arctic.Stats
	comm   comm.Stats // summed over ranks
	body   bodyCounts // summed over ranks
	model  trafficModel

	// recover4 only: whole-run counters of the faulted round.
	retransmits, timeouts          int64
	restarts, ckRounds, ckDiscards int64
	ckBytes                        int64
	lostPs, lostFlops              int64
}

// hostSnap is the process's resource accounting at an instant.
type hostSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	user, sys      time.Duration
}

// add accumulates the resources spent between from and to.
func (h *hostSnap) add(from, to hostSnap) {
	h.mallocs += to.mallocs - from.mallocs
	h.bytes += to.bytes - from.bytes
	h.gcs += to.gcs - from.gcs
	h.user += to.user - from.user
	h.sys += to.sys - from.sys
}

func readHost() hostSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSnap{
		mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC,
		user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano()),
	}
}

// sessionResult is what one session measured.
type sessionResult struct {
	setup, build, closing time.Duration
	blocks                []time.Duration // rank 0's wall time per timed block
	blockOps              int
	ops                   int64 // ops in the timed blocks
	attempted             int64 // every op run, warm-up included
	failed                int64
	win                   window
	digest                string
	host                  hostSnap // resources spent inside the timed blocks
	tr                    *tracer
	notes                 []string // why ops failed
}

func (r *sessionResult) wall() time.Duration {
	var d time.Duration
	for _, b := range r.blocks {
		d += b
	}
	return d
}

// sessionOpts selects the execution mode and length of one session.
type sessionOpts struct {
	workers   int           // cluster.Config.Workers
	traced    bool          // decorate the endpoints
	setupOnly bool          // stop at the first timed op
	blocks    int           // > 0: run exactly this many blocks
	budget    time.Duration // else: run blocks until this much is spent
}

// session is the shared state of one session's ranks.  Rank code runs
// only while it holds the DES baton, so the ranks take turns at these
// fields; what rank 0 writes between two barriers the others read after
// the second.
type session struct {
	w   *workload
	in  *inputs
	opt sessionOpts

	cl  *cluster.Cluster
	res *sessionResult

	t0      time.Time // session start
	timing  time.Time // start of the first block
	last    time.Time // start of rank 0's current block
	atStart hostSnap  // the process's resources then
	stop    bool      // rank 0: the block just run was the last

	bodies     []body
	errs       []error
	from, to   []rankSnap
	sums       [][]byte
	failed     []int64
	drifted    []bool // the last block's digest differs from the first's
	gFrom, gTo globalSnap
}

// runSession executes one session of w.
func runSession(w *workload, in *inputs, opt sessionOpts) (*sessionResult, error) {
	n := 1
	if w.nodes > 0 {
		n = w.nodes * w.ppn
	}
	s := &session{
		w: w, in: in, opt: opt,
		res:    &sessionResult{blockOps: w.blockOps, blocks: make([]time.Duration, 0, 1<<10)},
		bodies: make([]body, n), errs: make([]error, n),
		from: make([]rankSnap, n), to: make([]rankSnap, n),
		sums: make([][]byte, n), failed: make([]int64, n), drifted: make([]bool, n),
	}
	if opt.traced {
		s.res.tr = newTracer()
	}
	s.t0 = time.Now()
	if w.nodes == 0 {
		s.rank(0, &comm.Serial{})
	} else if err := s.runCluster(); err != nil {
		return nil, err
	}
	for r, err := range s.errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if opt.setupOnly {
		return s.res, nil
	}
	s.finish()
	return s.res, nil
}

func (s *session) runCluster() error {
	ccfg := cluster.DefaultConfig(s.w.nodes, s.w.ppn)
	ccfg.Workers = s.opt.workers
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		cl.Close()
		return err
	}
	s.cl = cl
	s.res.build = time.Since(s.t0)
	if tr := s.res.tr; tr != nil {
		tr.model.init(s.w.nodes, s.w.ppn, cl.Fabric.HopsBetween)
	}
	cl.Start(func(w *cluster.Worker) { s.rank(w.Rank, lib.Bind(w)) })
	err = cl.Run()
	c0 := time.Now()
	cl.Close()
	s.res.closing = time.Since(c0)
	return err
}

func (s *session) snapRank(r int, raw comm.Endpoint) rankSnap {
	return rankSnap{comm: *raw.Stats(), body: s.bodies[r].counts()}
}

func (s *session) snapGlobal() globalSnap {
	if s.cl == nil {
		return globalSnap{}
	}
	return globalSnap{events: s.cl.Eng.Events(), now: s.cl.Eng.Now(), net: s.cl.Fabric.Stats()}
}

// rank is the body of one simulated process (or of the whole serial
// run).  raw is the library's endpoint; the workload sees it through
// the tracing decorator when the session is traced.
func (s *session) rank(r int, raw comm.Endpoint) {
	var ep comm.Endpoint = raw
	var tep *tracedEP
	if s.res.tr != nil {
		tep = newTracedEP(raw, s.res.tr)
		ep = tep
	}
	b, err := s.w.newBody(s.in, r, ep)
	if err != nil {
		s.errs[r] = err
		return
	}
	s.bodies[r] = b
	for i := 0; i < s.w.warmOps; i++ {
		b.op()
	}
	raw.Barrier()
	if r == 0 {
		s.res.setup = time.Since(s.t0)
	}
	if s.opt.setupOnly {
		return
	}
	if s.opt.blocks != 1 {
		// A one-block session never restores, and its peak RSS is the
		// program's alone.
		if err := b.save(); err != nil {
			s.errs[r] = err
		}
	}
	s.from[r] = s.snapRank(r, raw)
	if r == 0 {
		s.gFrom = s.snapGlobal()
		s.timing = time.Now()
	}
	ops := int64(s.w.warmOps)
	blk := 1
	for ; ; blk++ {
		if blk > 1 {
			// Put the state back and meet, off the clock, so that no rank
			// starts the block while another is still restoring.
			if err := b.restore(); err != nil {
				s.errs[r] = err
			}
			raw.Barrier()
		}
		if r == 0 {
			s.startClock(blk)
		}
		for i := 0; i < s.w.blockOps; i++ {
			if tep != nil {
				tep.beginOp()
			}
			b.op()
			if tep != nil {
				tep.endOp()
			}
		}
		ops += int64(s.w.blockOps)
		if blk == 1 {
			// The check window closes at each rank's last op.
			s.to[r] = s.snapRank(r, raw)
			if r == 0 {
				s.gTo = s.snapGlobal()
				if tr := s.res.tr; tr != nil {
					tr.model.on = false
				}
			}
		}
		// The block ends when the last rank has finished it.
		ep.Barrier()
		if r == 0 {
			s.stopClock(blk)
		}
		if blk == 1 {
			h := sha256.New()
			if err := b.digest(h); err != nil {
				s.errs[r] = err
			}
			s.sums[r] = h.Sum(nil)
		}
		raw.Barrier()
		if s.stop {
			break
		}
	}
	if r == 0 {
		s.res.attempted = ops
	}
	s.failed[r] = b.verify()
	if blk > 1 {
		// Every block started from the same state, so the last one must
		// have ended where the first did.
		h := sha256.New()
		if err := b.digest(h); err != nil {
			s.errs[r] = err
		}
		s.drifted[r] = !bytes.Equal(h.Sum(nil), s.sums[r])
	}
}

// startClock opens rank 0's block blk.  The heap is collected first, so
// that what the restore left behind is not collected on the clock.
func (s *session) startClock(blk int) {
	runtime.GC()
	if tr := s.res.tr; tr != nil {
		tr.model.on = blk == 1 // count traffic inside the check window only
		tr.start()
	}
	s.atStart = readHost()
	s.last = time.Now()
}

// stopClock closes rank 0's block blk and decides whether it was the
// last: the next one would overrun the budget by more than it stays
// under it.
func (s *session) stopClock(blk int) {
	now := time.Now()
	if tr := s.res.tr; tr != nil {
		tr.stop()
	}
	s.res.host.add(s.atStart, readHost())
	s.res.blocks = append(s.res.blocks, now.Sub(s.last))
	if s.opt.blocks > 0 {
		s.stop = blk >= s.opt.blocks
		return
	}
	spent := now.Sub(s.timing)
	s.stop = spent+spent/time.Duration(2*blk) > s.opt.budget
}

// finish folds the per-rank slots into the result.
func (s *session) finish() {
	res := s.res
	res.ops = int64(len(res.blocks)) * int64(s.w.blockOps)
	w := &res.win
	w.ops = int64(s.w.blockOps)
	w.simPs = int64(s.gTo.now - s.gFrom.now)
	w.events = int64(s.gTo.events - s.gFrom.events)
	w.net = subNet(s.gTo.net, s.gFrom.net)
	all := sha256.New()
	for r := range s.bodies {
		a, b := s.from[r], s.to[r]
		w.comm.ComputeTime += b.comm.ComputeTime - a.comm.ComputeTime
		w.comm.ExchangeTime += b.comm.ExchangeTime - a.comm.ExchangeTime
		w.comm.GsumTime += b.comm.GsumTime - a.comm.GsumTime
		w.comm.BarrierTime += b.comm.BarrierTime - a.comm.BarrierTime
		w.comm.BytesSent += b.comm.BytesSent - a.comm.BytesSent
		w.comm.Exchanges += b.comm.Exchanges - a.comm.Exchanges
		w.comm.GlobalSums += b.comm.GlobalSums - a.comm.GlobalSums
		w.body.flopsPS += b.body.flopsPS - a.body.flopsPS
		w.body.flopsDS += b.body.flopsDS - a.body.flopsDS
		w.body.cgIters += b.body.cgIters - a.body.cgIters
		w.body.solves += b.body.solves - a.body.solves
		all.Write(s.sums[r])
		res.failed += s.failed[r]
		if s.drifted[r] {
			res.failed = res.attempted
			res.notes = append(res.notes, fmt.Sprintf("rank %d: the last block ended in another state than the first", r))
		}
	}
	if f0, ok := s.bodies[0].(folder); ok {
		for r, b := range s.bodies {
			if b.(folder).foldSum() != f0.foldSum() {
				res.failed = res.attempted
				res.notes = append(res.notes, fmt.Sprintf("rank %d saw results that differ from rank 0's", r))
				break
			}
		}
	}
	if s.w.nodes == 0 {
		// The serial endpoint has no engine: its clock is the charged
		// compute time.
		w.simPs = int64(w.comm.ComputeTime)
	}
	if res.tr != nil {
		w.model = res.tr.model
	}
	res.digest = hex.EncodeToString(all.Sum(nil))
}

func subNet(a, b arctic.Stats) arctic.Stats {
	a.Packets -= b.Packets
	a.PayloadBytes -= b.PayloadBytes
	a.WireBytes -= b.WireBytes
	return a
}

// median returns the middle of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
