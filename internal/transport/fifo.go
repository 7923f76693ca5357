package transport

// FIFO is a first-in, first-out queue over a reusable buffer. Pop
// advances a head index instead of reslicing the front away, so a
// steady push/pop stream reuses one buffer rather than reallocating as
// its capacity drains off the front; popped slots are zeroed so the
// queue does not pin what it has handed out. The zero value is an empty
// queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		// Full, with at least half the buffer already popped: slide the
		// live items to the front instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the front item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Clear empties the queue, keeping its buffer.
func (q *FIFO[T]) Clear() {
	clear(q.buf[q.head:])
	q.buf, q.head = q.buf[:0], 0
}
