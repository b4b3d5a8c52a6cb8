// The event queue.
//
// The kernel's contract with its queue is a strict total order: events
// execute in ascending (at, seq), where seq is the global schedule
// counter.  The queue is a ladder queue in the style of Tang, Goh &
// Thng: amortized O(1) enqueue and dequeue via time-bucketed rungs,
// O(1) cancellation, no comparison work proportional to the pending-
// event count.  This is what lets the simulated machine grow from 32
// to 1,024 nodes without the queue becoming the hot path.  The binary
// heap it replaced lives on in heap_test.go as the order reference the
// ladder is tested against.
package des

import "hyades/internal/units"

// ---------------------------------------------------------------------------
// Ladder queue.

const (
	// ladderBuckets is the bucket count per rung.  With 64 buckets a
	// spawn divides a bucket's span by 64, so even a 1-hour watchdog
	// horizon (3.6e15 ps) refines to single-picosecond buckets in
	// ceil(log64 3.6e15) = 9 levels — but in practice the sort
	// threshold stops refinement after one or two.
	ladderBuckets = 64
	// ladderSortThreshold: a bucket with at most this many events is
	// sorted straight into bottom rather than spawning a finer rung.
	// Sorting this many events costs tens of nanoseconds apiece;
	// refining one level deeper costs a rung spawn plus a re-add per
	// event, so the break-even sits well above the bucket count (64) —
	// a threshold below it risks a pathological extra level whenever a
	// bucket splits just unevenly enough.
	ladderSortThreshold = 128
	// ladderMaxRungs bounds refinement depth; a bucket at the limit is
	// sorted regardless of size (degenerate same-timestamp storms hit
	// the width==1 stop long before this).
	ladderMaxRungs = 8
)

// Values of event.rng identifying the container an event sits in; a
// value >= 0 is an index into ladderQueue.rungs.
const (
	rngTop    int8 = -1
	rngBottom int8 = -2
)

// rung is one refinement level: ladderBuckets equal-width time buckets
// starting at start.  cur indexes the first bucket not yet drained;
// count is the number of events currently stored across all buckets.
// Buckets are unsorted — order is imposed only when a bucket's events
// reach bottom.  Widths are rounded up to powers of two (width ==
// 1<<shift) so the per-push bucket index is a shift, not an int64
// division — the single hottest instruction in the queue.
type rung struct {
	start   units.Time
	width   units.Time
	shift   uint
	cur     int
	count   int
	buckets [ladderBuckets][]*event
}

// curStart is the left edge of the first undrained bucket: events below
// it belong to a deeper rung or to bottom.
func (r *rung) curStart() units.Time {
	return r.start + units.Time(r.cur)*r.width
}

// add places ev in its bucket.  The caller guarantees
// curStart <= ev.at < start + ladderBuckets*width.
func (r *rung) add(ev *event, rngIdx int8) {
	b := int((ev.at - r.start) >> r.shift)
	ev.rng = rngIdx
	ev.bkt = int32(b)
	ev.idx = len(r.buckets[b])
	r.buckets[b] = append(r.buckets[b], ev)
	r.count++
}

// reset clears the rung for reuse, keeping bucket capacity.
func (r *rung) reset() {
	for i := range r.buckets {
		b := r.buckets[i]
		for j := range b {
			b[j] = nil
		}
		r.buckets[i] = b[:0]
	}
	r.cur, r.count = 0, 0
	r.start, r.width = 0, 0
}

// ladderQueue is the engine's pending-event set.  Structure, coarse to
// fine:
//
//	top    — unsorted spill list for events at or beyond topStart
//	rungs  — bucketed refinement levels (rungs[0] coarsest); each
//	         deeper rung subdivides one bucket of its parent
//	bottom — the sorted head of the timeline, drained by cursor
//
// Ordering invariant: every event in bottom[cursor:] precedes (in
// (at, seq) order) every event in any rung, and every rung precedes all
// rungs above it and top.  Pops therefore come from bottom only, and
// refilling bottom from the deepest rung's next bucket preserves the
// global total order: the same order a binary heap keyed on (at, seq)
// pops, which the queue-level oracle tests check.
//
// Cancellation: top and rung buckets are unsorted, so a cancelled event
// is swap-removed in O(1) via its (rng, bkt, idx) location stamp.  Only
// bottom — at most one sorted bucket, ≤ ladderSortThreshold events in
// steady state — uses tombstones (event.dead), drained by head.  This
// matters because every park of every process arms a watchdog event
// (1 hour of virtual time by default) that is almost always cancelled:
// eager removal in the unsorted regions keeps millions of armed-then-
// cancelled watchdogs from accumulating as garbage.
//
// The queue recycles its own events: free is the freelist that event
// takes from and that a fired, swap-removed or drained tombstoned event
// returns to, so scheduling allocates nothing in steady state.
type ladderQueue struct {
	top            []*event
	topMin, topMax units.Time // conservative bounds over top (stale after cancels: min only ever too low, max too high — never falsely equal)
	topStart       units.Time // events at/after this go to top
	rungs          []*rung
	retired        []*rung // dropped rungs for newRung to reuse, bucket capacity preserved
	bottom         []*event
	cursor         int
	live           int
	free           []*event
}

// len counts the live (uncancelled) events.
func (l *ladderQueue) len() int { return l.live }

// event takes an event from the freelist (or allocates one) for the
// position (at, seq).
func (l *ladderQueue) event(at units.Time, seq uint64, fn func()) *event {
	if n := len(l.free); n > 0 {
		ev := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		ev.at, ev.seq, ev.fn = at, seq, fn
		return ev
	}
	return &event{at: at, seq: seq, fn: fn}
}

// recycle returns a fired or cancelled event to the freelist.  The
// closure is dropped so recycling never retains captured state.
func (l *ladderQueue) recycle(ev *event) {
	ev.fn = nil
	ev.dead = false
	l.free = append(l.free, ev)
}

func (l *ladderQueue) push(ev *event) {
	l.live++
	if ev.at >= l.topStart {
		ev.rng = rngTop
		ev.idx = len(l.top)
		if len(l.top) == 0 {
			l.topMin, l.topMax = ev.at, ev.at
		} else {
			if ev.at < l.topMin {
				l.topMin = ev.at
			}
			if ev.at > l.topMax {
				l.topMax = ev.at
			}
		}
		l.top = append(l.top, ev)
		return
	}
	// Coarse to fine: the first rung whose undrained span contains the
	// event takes it.  Anything earlier than every rung's cursor lands
	// in the sorted bottom.
	for i, r := range l.rungs {
		if ev.at >= r.curStart() {
			r.add(ev, int8(i))
			return
		}
	}
	l.insertBottom(ev)
}

// insertBottom places ev into the sorted region bottom[cursor:] by its
// full (at, seq) key: usually ev carries the newest seq and sorts last
// among equal timestamps, but a materialised Slot carries an older one.
// The key always lies after the running activity's (timestamps are
// clamped to the present; a passed slot is never queued), so the
// insertion point is never before cursor.
//
// An insert that sorts after the tail is appended (two in three on a
// run of global sums, about one in a hundred on the ocean and coupled
// runs: DESIGN.md, "Measured occupancy"); any other binary-searches.
//
// The drained prefix bottom[:cursor] is dead weight: in steady state
// every pop of a wake event triggers a push of the next one into
// bottom, so the region never fully drains and a plain append would
// grow the backing array without bound (the dominant allocation of the
// whole simulator before compaction).  Sliding the live tail back to
// the front once the prefix outweighs it keeps the array at O(pending)
// while preserving order, so the fix is invisible to the event
// sequence.
func (l *ladderQueue) insertBottom(ev *event) {
	ev.rng = rngBottom
	if c := l.cursor; c >= 32 && c >= len(l.bottom)-c {
		n := copy(l.bottom, l.bottom[c:])
		clear(l.bottom[n:])
		l.bottom = l.bottom[:n]
		l.cursor = 0
	}
	lo, hi := l.cursor, len(l.bottom)
	if lo == hi || eventBefore(l.bottom[hi-1], ev) {
		l.bottom = append(l.bottom, ev)
		return
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(l.bottom[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.bottom = append(l.bottom, nil)
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = ev
}

// head returns the first live event, refilling bottom from the rungs
// and top as it empties and recycling the tombstones in front of it.
func (l *ladderQueue) head() *event {
	for {
		for l.cursor >= len(l.bottom) {
			l.bottom = l.bottom[:0]
			l.cursor = 0
			if !l.refill() {
				// Fully drained: reopen top at time zero so the next epoch
				// of pushes takes the O(1) append path again.
				l.topStart = 0
				return nil
			}
		}
		ev := l.bottom[l.cursor]
		if !ev.dead {
			return ev
		}
		l.bottom[l.cursor] = nil
		l.cursor++
		l.recycle(ev)
	}
}

// next removes and returns the first live event if it is at or before
// limit: one call per dispatch.
func (l *ladderQueue) next(limit units.Time) *event {
	ev := l.head()
	if ev == nil || ev.at > limit {
		return nil
	}
	l.bottom[l.cursor] = nil
	l.cursor++
	l.live--
	return ev
}

// cancel removes a queued event: at once from top or a rung, as a
// tombstone that head drains from bottom.
func (l *ladderQueue) cancel(ev *event) {
	l.live--
	switch ev.rng {
	case rngBottom:
		ev.dead = true
		return
	case rngTop:
		last := len(l.top) - 1
		moved := l.top[last]
		l.top[ev.idx] = moved
		moved.idx = ev.idx
		l.top[last] = nil
		l.top = l.top[:last]
	default:
		r := l.rungs[ev.rng]
		b := r.buckets[ev.bkt]
		last := len(b) - 1
		moved := b[last]
		b[ev.idx] = moved
		moved.idx = ev.idx
		b[last] = nil
		r.buckets[ev.bkt] = b[:last]
		r.count--
	}
	l.recycle(ev)
}

// refill moves the next timeline segment into the (empty) bottom and
// sorts it.  It reports false when the whole queue is physically empty.
func (l *ladderQueue) refill() bool {
	for {
		if n := len(l.rungs); n > 0 {
			r := l.rungs[n-1]
			if r.count == 0 {
				l.dropRung()
				continue
			}
			for len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			b := r.buckets[r.cur]
			bucketStart := r.curStart()
			if len(b) <= ladderSortThreshold || r.width <= 1 || n >= ladderMaxRungs {
				l.bottom = append(l.bottom, b...)
				for _, ev := range l.bottom {
					ev.rng = rngBottom
				}
				sortEvents(l.bottom)
			} else {
				// Oversized bucket: refine into a child rung covering
				// exactly this bucket's span.
				child := l.newRung(bucketStart, (r.width+ladderBuckets-1)/ladderBuckets)
				ci := int8(n)
				for _, ev := range b {
					child.add(ev, ci)
				}
				l.rungs = append(l.rungs, child)
			}
			for j := range b {
				b[j] = nil
			}
			r.buckets[r.cur] = b[:0]
			r.count -= len(b)
			r.cur++
			if len(l.bottom) > 0 {
				return true
			}
			continue
		}
		if len(l.top) == 0 {
			return false
		}
		if l.topMin == l.topMax {
			// Every event in top shares one timestamp: bucketing cannot
			// subdivide, sort straight into bottom (by seq).
			l.bottom = append(l.bottom, l.top...)
			for _, ev := range l.bottom {
				ev.rng = rngBottom
			}
			sortEvents(l.bottom)
			l.clearTop()
			return true
		}
		r := l.newRung(l.topMin, (l.topMax-l.topMin)/ladderBuckets+1)
		for _, ev := range l.top {
			r.add(ev, 0)
		}
		l.rungs = append(l.rungs, r)
		l.clearTop()
	}
}

// clearTop empties top (capacity preserved) and advances topStart past
// everything that was in it, so later pushes cannot land behind the
// rung just built.
func (l *ladderQueue) clearTop() {
	for i := range l.top {
		l.top[i] = nil
	}
	l.top = l.top[:0]
	l.topStart = l.topMax + 1
}

func (l *ladderQueue) newRung(start, width units.Time) *rung {
	var r *rung
	if n := len(l.retired); n > 0 {
		r = l.retired[n-1]
		l.retired[n-1] = nil
		l.retired = l.retired[:n-1]
	} else {
		r = new(rung)
	}
	// Round the requested width up to a power of two.  A rung may then
	// cover more than the span it refines, which is harmless — bucket
	// indices only shrink — and buys a shift in place of a division on
	// every add.
	s := uint(0)
	w := int64(1)
	for w < int64(width) {
		w <<= 1
		s++
	}
	r.start, r.width, r.shift = start, units.Time(w), s
	return r
}

func (l *ladderQueue) dropRung() {
	n := len(l.rungs)
	r := l.rungs[n-1]
	l.rungs[n-1] = nil
	l.rungs = l.rungs[:n-1]
	r.reset()
	l.retired = append(l.retired, r)
}

// ---------------------------------------------------------------------------
// Sorting.  (at, seq) keys are unique, so any comparison sort yields
// the one total order — determinism does not depend on stability.  Own
// implementation because sort.Slice allocates (closure + interface
// header) on the event hot path.

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortEvents sorts s ascending by (at, seq): insertion sort for small
// runs, median-of-three quicksort above that.
func sortEvents(s []*event) {
	for len(s) > 24 {
		p := partitionEvents(s)
		if p < len(s)-p-1 {
			sortEvents(s[:p])
			s = s[p+1:]
		} else {
			sortEvents(s[p+1:])
			s = s[:p]
		}
	}
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := i - 1
		for j >= 0 && eventBefore(ev, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = ev
	}
}

func partitionEvents(s []*event) int {
	n := len(s)
	m := n / 2
	// Median of first/middle/last as pivot, parked at the end.
	if eventBefore(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if eventBefore(s[n-1], s[0]) {
		s[n-1], s[0] = s[0], s[n-1]
	}
	if eventBefore(s[n-1], s[m]) {
		s[n-1], s[m] = s[m], s[n-1]
	}
	s[m], s[n-2] = s[n-2], s[m]
	pivot := s[n-2]
	i := 0
	for j := 0; j < n-2; j++ {
		if eventBefore(s[j], pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[n-2] = s[n-2], s[i]
	return i
}
