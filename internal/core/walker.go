package core

import (
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/task"
)

// hiWalker walks the slope-change events of the summed HI-mode demand
// curve (DBF_HI or ADB_HI) of a task set in increasing order, maintaining
// the exact summed value and right-slope incrementally.
//
// Between events every per-task curve is exactly linear (package dbf), so
// extrapolating a non-event task's contribution by slope·dt is exact in
// integer arithmetic; only the tasks whose event fired are re-evaluated.
// Compared to re-evaluating all n tasks at each of the E events, the walk
// drops from O(n·E) to O(E·log n) plus O(1) per fired task, which is what
// makes the Fig. 6/7 experiment scales practical.
type hiWalker struct {
	// plan is the set's compiled columnar lowering (package dbf): every
	// per-task evaluation reads the plan's flat int64 columns instead of
	// re-deriving the carry-over geometry from the task structs.
	plan dbf.Plan

	pos   task.Time // current position (an event point, or 0)
	value task.Time // Σ_i curve_i(pos)
	slope task.Time // Σ_i right-slope_i(pos)

	// Per-task state at the last update.
	taskVal   []task.Time
	taskSlope []task.Time
	taskPos   []task.Time

	events eventHeap
}

// eventHeap is an allocation-free binary min-heap of
// (nextEventTime, taskIndex) pairs. A hand-rolled heap (rather than
// container/heap) avoids one interface allocation per pushed event, which
// dominates the walk cost for typical set sizes.
type eventHeap struct {
	times []task.Time
	tasks []int
}

func (h *eventHeap) Len() int { return len(h.times) }

// reset empties the heap, growing the backing arrays to hold n entries
// without further allocation (each task contributes at most one pending
// event, so n = len(set) is the exact high-water mark of a walk).
func (h *eventHeap) reset(n int) {
	if cap(h.times) < n {
		h.times = make([]task.Time, 0, n)
		h.tasks = make([]int, 0, n)
		return
	}
	h.times, h.tasks = h.times[:0], h.tasks[:0]
}

// append adds an entry without restoring heap order; callers batch
// appends during Reset/SkipTo and fix the order with one heapify, which
// is O(n) instead of the O(n log n) of n sifted insertions.
func (h *eventHeap) append(t task.Time, taskIdx int) {
	h.times = append(h.times, t)
	h.tasks = append(h.tasks, taskIdx)
}

// heapify restores the min-heap invariant over the appended entries by
// the standard bottom-up sift-down build: each inner node, deepest first,
// costs one step plus one per level it descends, and the node heights of
// an n-entry heap sum to less than n, so the build takes fewer than
// n/2 + n steps. It returns that step count. The order in which equal
// times reach the top is unspecified either way: the walker drains all ties at a position
// before acting, and its per-task updates commute, so walk results do
// not depend on the construction method.
func (h *eventHeap) heapify() (steps int) {
	for i := len(h.times)/2 - 1; i >= 0; i-- {
		steps += h.siftDown(i)
	}
	return steps
}

// replaceTop overwrites the minimum entry with (t, taskIdx) and restores
// heap order in one sift-down, where a pop and a push would pay a
// sift-down and a sift-up.
func (h *eventHeap) replaceTop(t task.Time, taskIdx int) {
	h.times[0], h.tasks[0] = t, taskIdx
	h.siftDown(0)
}

// siftDown moves entry j down until neither child is smaller and returns
// the number of nodes it visited (one more than the levels it descended).
func (h *eventHeap) siftDown(j int) (steps int) {
	n := len(h.times)
	for {
		steps++
		l, r := 2*j+1, 2*j+2
		smallest := j
		if l < n && h.times[l] < h.times[smallest] {
			smallest = l
		}
		if r < n && h.times[r] < h.times[smallest] {
			smallest = r
		}
		if smallest == j {
			return steps
		}
		h.times[j], h.times[smallest] = h.times[smallest], h.times[j]
		h.tasks[j], h.tasks[smallest] = h.tasks[smallest], h.tasks[j]
		j = smallest
	}
}

// newHIWalker positions a fresh walker at Δ = 0 with all storage
// pre-sized to len(s). Analyses should prefer Options.acquireWalker,
// which recycles walkers instead of allocating.
func newHIWalker(s task.Set, kind dbf.Kind) *hiWalker {
	w := &hiWalker{}
	w.Reset(s, kind)
	return w
}

// Reset repositions the walker at Δ = 0 over a (possibly different) task
// set and curve kind, lowering the set into the walker's columnar plan
// and reusing every internal slice. After the first walk at a given set
// size a Reset performs no heap allocation, which is what lets the
// package pool and the Scratch arena run the Theorem-2 / Corollary-5
// analyses allocation-free in steady state.
func (w *hiWalker) Reset(s task.Set, kind dbf.Kind) {
	w.plan.Compile(s, kind)
	w.pos, w.value, w.slope = 0, 0, 0
	n := len(s)
	w.taskVal = sizedTimes(w.taskVal, n)
	w.taskSlope = sizedTimes(w.taskSlope, n)
	w.taskPos = sizedTimes(w.taskPos, n)
	w.events.reset(n)
	for i := 0; i < n; i++ {
		v, slope, next, ok := w.plan.TaskStep(i, 0)
		w.taskVal[i] = v
		w.taskSlope[i] = slope
		w.taskPos[i] = 0
		w.value += v
		w.slope += slope
		if ok {
			w.events.append(next, i)
		}
	}
	w.events.heapify()
}

// Plan returns the walker's compiled plan, for the analyses' O(n)
// certificate probes over the same set.
func (w *hiWalker) Plan() *dbf.Plan { return &w.plan }

// sizedTimes returns buf resized to n entries, reusing its backing array
// when the capacity suffices. Contents are unspecified; Reset overwrites
// every entry.
func sizedTimes(buf []task.Time, n int) []task.Time {
	if cap(buf) < n {
		return make([]task.Time, n)
	}
	return buf[:n]
}

// Pos, Value and Slope describe the current event point: the summed curve
// value AT pos (right-continuous) and the slope immediately to its right.
func (w *hiWalker) Pos() task.Time   { return w.pos }
func (w *hiWalker) Value() task.Time { return w.value }
func (w *hiWalker) Slope() task.Time { return w.slope }

// PeekNext reports the position of the next event without advancing.
func (w *hiWalker) PeekNext() (task.Time, bool) {
	if w.events.Len() == 0 {
		return 0, false
	}
	return w.events.times[0], true
}

// SkipTo repositions the walker at target > Pos() without visiting the
// events in between — the periodic-tail fast-forward behind the pruned
// walks. The target need not be an event point: every task is
// re-evaluated at target in O(1) through the plan, and the event heap is
// rebuilt with each task's first event beyond target, so a subsequent
// Next() continues the walk exactly as if every intermediate event had
// been popped.
//
// Callers are responsible for proving the skipped events irrelevant (see
// the incumbent certificates in speedup.go / reset.go / design.go);
// SkipTo itself is exact for any forward target. Targets ≤ Pos() are
// ignored.
func (w *hiWalker) SkipTo(target task.Time) {
	if target <= w.pos {
		return
	}
	w.pos, w.value, w.slope = target, 0, 0
	n := w.plan.Len()
	w.events.reset(n)
	for i := 0; i < n; i++ {
		v, slope, next, ok := w.plan.TaskStep(i, target)
		w.taskVal[i] = v
		w.taskPos[i] = target
		w.taskSlope[i] = slope
		w.value += v
		w.slope += slope
		if ok {
			w.events.append(next, i)
		}
	}
	w.events.heapify()
}

// Next advances to the next event point. ok is false when no task has
// events (every task terminated — the curves are constant).
func (w *hiWalker) Next() (ok bool) {
	if w.events.Len() == 0 {
		return false
	}
	next := w.events.times[0]
	dt := next - w.pos
	// Extrapolate all contributions linearly (exact between events)...
	w.value += w.slope * dt
	w.pos = next
	// ...then correct the tasks whose event fired: re-evaluate exactly,
	// absorbing both slope changes and upward jumps.
	for w.events.Len() > 0 && w.events.times[0] == next {
		i := w.events.tasks[0]
		predicted := w.taskVal[i] + w.taskSlope[i]*(next-w.taskPos[i])
		// Only active rows enter the heap, and an active row always has
		// a next event, so the fired task's successor takes its slot.
		exact, slope, nn, _ := w.plan.TaskStep(i, next)
		w.value += exact - predicted
		w.slope += slope - w.taskSlope[i]
		w.taskVal[i] = exact
		w.taskPos[i] = next
		w.taskSlope[i] = slope
		w.events.replaceTop(nn, i)
	}
	return true
}
