package sim

// ReadyQueue orders items of type T by (Time, sequence): the same
// discipline the engine's event queue uses, exposed for higher layers
// that schedule runnable work outside the single-threaded engine. The
// interpreter's bounded worker pool keys runnable ranks by their
// virtual clock so a freed worker slot always resumes the
// furthest-behind rank, mirroring the engine's deterministic
// lowest-time-first order.
//
// The heap is typed, so pushing and popping box nothing: once the
// backing array has grown to the queue's high-water mark, a Push/Pop
// pair allocates nothing. The zero value is an empty queue.
//
// ReadyQueue is not safe for concurrent use; callers serialize access
// with their own lock.
type ReadyQueue[T any] struct {
	items  []readyItem[T]
	nextID uint64
}

type readyItem[T any] struct {
	at  Time
	seq uint64
	v   T
}

// Len reports the number of queued items.
func (q *ReadyQueue[T]) Len() int { return len(q.items) }

// Push enqueues v keyed by time at. Items pushed with equal times pop
// in push order.
func (q *ReadyQueue[T]) Push(at Time, v T) {
	q.items = append(q.items, readyItem[T]{at: at, seq: q.nextID, v: v})
	q.nextID++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the item with the lowest (time, sequence)
// key. ok is false on an empty queue.
func (q *ReadyQueue[T]) Pop() (v T, ok bool) {
	n := len(q.items) - 1
	if n < 0 {
		return v, false
	}
	v = q.items[0].v
	q.items[0] = q.items[n]
	q.items[n] = readyItem[T]{} // drop the reference held by the vacated slot
	q.items = q.items[:n]
	q.down(0)
	return v, true
}

func (q *ReadyQueue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *ReadyQueue[T]) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *ReadyQueue[T]) down(i int) {
	n := len(q.items)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			return
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}
