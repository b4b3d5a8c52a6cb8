package des

import (
	"container/heap"

	"hyades/internal/units"
)

// heapSched is the binary heap the ladder queue replaced, kept as the
// order reference of the queue-level oracle tests: both must pop in
// strict (at, seq) order.  Cancellation removes outright (heap.Remove,
// O(log n) with index maintenance on every swap), so it never surfaces
// dead events.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(ev *event) { heap.Push(&s.h, ev) }
func (s *heapSched) next(limit units.Time) *event {
	if len(s.h) == 0 || s.h[0].at > limit {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}
func (s *heapSched) cancel(ev *event) { heap.Remove(&s.h, ev.idx) }
func (s *heapSched) len() int         { return len(s.h) }

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
