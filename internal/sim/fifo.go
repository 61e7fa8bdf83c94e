package sim

// fifo is a slice-backed FIFO that keeps its backing array. Popping
// with buf = buf[1:] gives the array's front away, so a queue that
// oscillates between empty and one entry reallocates on every push;
// here pop advances a head index, the storage rewinds when the last
// entry leaves, and a push that finds the array full with at least
// half of it already popped slides the live entries down instead of
// growing. Both are O(1) amortized, so unbounded queues that never
// drain (softnet, stream inboxes) pay no copy-down per pop either.
// Popped slots are cleared so the array pins nothing it no longer
// holds. The zero value is an empty fifo.
type fifo[E any] struct {
	buf  []E
	head int
}

func (f *fifo[E]) len() int { return len(f.buf) - f.head }

// live returns the queued entries, oldest first. The slice aliases
// the storage and is invalidated by the next push, pop or removeAt.
func (f *fifo[E]) live() []E { return f.buf[f.head:] }

func (f *fifo[E]) push(e E) {
	if f.head > 0 && len(f.buf) == cap(f.buf) && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, e)
}

// pop removes and returns the oldest entry; the fifo must not be
// empty.
func (f *fifo[E]) pop() E {
	e := f.buf[f.head]
	var zero E
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return e
}

// removeAt deletes the i-th oldest entry, keeping the rest in order.
func (f *fifo[E]) removeAt(i int) {
	if i == 0 {
		f.pop()
		return
	}
	at := f.head + i
	copy(f.buf[at:], f.buf[at+1:])
	var zero E
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
}
