// Package sched provides the deterministic event queue the timing
// analyzer's drain loop runs on: a priority queue with a strict total
// order on (time, node, transition).
//
// Determinism is the package's contract. The queue's order is total — two
// distinct items never compare equal — so the pop sequence is a pure
// function of the push multiset, independent of push interleaving or of
// the heap's internal arrangement. The analyzer relies on this to make
// feedback-guard cutoffs and equal-time tie-breaks reproducible between a
// full run and an incremental one.
package sched

// Item is one pending propagation: the (node, transition) pair becomes
// ready at time T. The scheduler does not interpret T beyond ordering;
// staleness (a fresher arrival superseding a queued one) is the caller's
// protocol, handled at pop time.
type Item struct {
	T    float64
	Node int32
	Tr   uint8
}

// Less is the strict total order of the scheduler: time, then node, then
// transition. A mere partial order on time would let the pop order of
// tied events depend on the queue's internal state — i.e. on every
// unrelated event ever pushed — making feedback-guard cutoffs
// irreproducible between runs.
func Less(a, b Item) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Tr < b.Tr
}

// Queue is a priority queue of Items under Less. The zero value is an
// empty queue ready for use. Not safe for concurrent use — one analyzer
// owns it.
//
// Internally a 4-ary implicit heap on a value slice: items are moved, not
// boxed, and the four children of a node share a cache line (an Item is 16
// bytes), so sift-down — the cost center of a pop-heavy workload — touches
// half the levels of a binary heap.
type Queue struct {
	s []Item
}

// Len returns the number of queued items (including any stale ones the
// caller has yet to skip).
func (q *Queue) Len() int { return len(q.s) }

// Peek returns the minimum item without removing it. The queue must be
// non-empty.
func (q *Queue) Peek() Item { return q.s[0] }

// Reset empties the queue, keeping its storage for reuse.
func (q *Queue) Reset() { q.s = q.s[:0] }

// Grow ensures capacity for at least n additional items.
func (q *Queue) Grow(n int) {
	if cap(q.s)-len(q.s) < n {
		next := make([]Item, len(q.s), len(q.s)+n)
		copy(next, q.s)
		q.s = next
	}
}

// Push inserts an item.
func (q *Queue) Push(it Item) {
	q.s = append(q.s, it)
	s := q.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !Less(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// Pop removes and returns the minimum item. The queue must be non-empty.
func (q *Queue) Pop() Item {
	s := q.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	q.s = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Select the least of up to four children.
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if Less(s[j], s[min]) {
				min = j
			}
		}
		if !Less(s[min], s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
