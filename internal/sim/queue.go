package sim

// closeSentinel wakes getters parked on a queue that gets closed.
type closeSentinel struct{}

// queueGetter is a parked consumer: a process blocked in Get, or the
// continuation a GetFunc left behind.
type queueGetter[T any] struct {
	p  *Proc
	fn func(T, bool)
}

// queuePutter is a parked producer (a process blocked in Put or
// PutTimeout, or a PutFunc continuation) holding the item it wants to
// add. Timed putters carry their wait generation and the timer of
// their expiry so admission can atomically decide between hand-off and
// timeout (whichever cancels the other first wins).
type queuePutter[T any] struct {
	p     *Proc
	fn    func(bool)
	item  T
	timed bool
	gen   uint64
	timer Timer
}

// queueWake is one scheduled resumption in flight: the item committed
// to a dispatched getter, or the continuation (get or put) a func
// event will run with ok.
type queueWake[T any] struct {
	item T
	get  func(T, bool)
	put  func(bool)
	ok   bool
}

// Queue is a FIFO channel between processes. A capacity of 0 means
// unbounded; otherwise Put blocks while the queue is full. Get blocks
// while the queue is empty. Closing wakes all blocked parties.
//
// Every blocking call has an event-context twin (GetFunc, PutFunc)
// for stages that model hardware rather than a thread of control: it
// books exactly what the blocking call books, and where the blocking
// call would schedule the process's wake-up it schedules the
// continuation as a plain event in the same (time, seq) position.
// Procs and continuations share the getter and putter FIFOs, so mixing
// them on one queue keeps arrival order.
type Queue[T any] struct {
	k       *Kernel
	label   string
	cap     int
	items   fifo[T]
	getters fifo[queueGetter[T]]
	putters fifo[queuePutter[T]]
	closed  bool

	// wakes holds one entry per scheduled hand-off or continuation, in
	// schedule order, which is also firing order: the events all carry
	// increasing (time, seq). A woken getter process pops its item
	// here; fire pops and runs a continuation. Carrying the item here
	// instead of in the wake-up event's value keeps the hand-off
	// monomorphic (boxing a struct T into the event's `any` slot would
	// allocate per transfer), and one thunk bound per queue serves
	// every continuation, so neither kind of hand-off allocates.
	wakes fifo[queueWake[T]]
	fire  func()

	puts uint64
	gets uint64
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	if capacity < 0 {
		panic("sim: negative queue capacity")
	}
	return &Queue[T]{k: k, cap: capacity, label: edgeQueue}
}

// SetLabel names the profiler edge that parks and hand-offs on this
// queue are attributed to. The label must be a compile-time constant;
// see DESIGN.md §15.
func (q *Queue[T]) SetLabel(label string) { q.label = label }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Puts reports the total number of items ever accepted.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Gets reports the total number of items ever delivered.
func (q *Queue[T]) Gets() uint64 { return q.gets }

// Put adds an item, blocking while a bounded queue is full. It reports
// false if the queue was closed before the item could be accepted.
func (q *Queue[T]) Put(p *Proc, item T) bool {
	if q.TryPut(item) {
		return true
	}
	if q.closed {
		return false
	}
	q.putters.push(queuePutter[T]{p: p, item: item})
	_, wasClosed := p.parkOn(q.label).(closeSentinel)
	return !wasClosed
}

// PutFunc is Put for event context: fn runs with Put's result, at
// once when Put would not have blocked, otherwise as an event at the
// point Put's process would have been woken.
func (q *Queue[T]) PutFunc(item T, fn func(ok bool)) {
	if q.TryPut(item) {
		fn(true)
		return
	}
	if q.closed {
		fn(false)
		return
	}
	q.putters.push(queuePutter[T]{fn: fn, item: item})
}

// PutTimeout adds an item, blocking at most d while a bounded queue is
// full. It reports whether the item was accepted; false means the
// queue was closed or the timeout expired with the queue still full.
// A non-positive d degenerates to TryPut.
func (q *Queue[T]) PutTimeout(p *Proc, item T, d Time) bool {
	if q.TryPut(item) {
		return true
	}
	if d <= 0 || q.closed {
		return false
	}
	w := queuePutter[T]{p: p, item: item, timed: true}
	w.gen = p.beginWait()
	w.timer = q.k.atWake(q.k.now+d, p, w.gen, timeoutSentinel{})
	q.putters.push(w)
	v := p.parkOn(q.label)
	switch v.(type) {
	case closeSentinel:
		return false
	case timeoutSentinel:
		// The entry is skipped (and dropped) by admitPutter/Close when
		// its turn comes: Stop on its expired timer reports false.
		return false
	}
	return true
}

// Evict removes and returns the oldest buffered item matching the
// predicate, without waking or blocking anybody beyond admitting one
// parked producer into the freed slot. Load-shedding consumers use it
// to drop stale work in favour of fresh arrivals.
func (q *Queue[T]) Evict(match func(T) bool) (item T, ok bool) {
	for i, it := range q.items.live() {
		if !match(it) {
			continue
		}
		q.items.removeAt(i)
		q.admitPutter()
		return it, true
	}
	return item, false
}

// TryPut adds an item without blocking; it reports whether the item
// was accepted.
func (q *Queue[T]) TryPut(item T) bool {
	if q.closed {
		return false
	}
	// Direct hand-off to a parked getter preserves FIFO wake order.
	if q.getters.len() > 0 {
		g := q.getters.pop()
		q.puts++
		q.gets++
		if pr := q.k.prof; pr != nil {
			pr.Handoff(q.k.now, q.label)
		}
		w := queueWake[T]{item: item, get: g.fn, ok: true}
		if g.p != nil {
			q.wakes.push(w)
			q.k.atDispatch(q.k.now, g.p, nil)
		} else {
			q.atFire(w)
		}
		return true
	}
	if q.cap == 0 || q.items.len() < q.cap {
		q.items.push(item)
		q.puts++
		return true
	}
	return false
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false when the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	if item, ok = q.TryGet(); ok || q.closed {
		return item, ok
	}
	q.getters.push(queueGetter[T]{p: p})
	if _, wasClosed := p.parkOn(q.label).(closeSentinel); wasClosed {
		return item, false
	}
	return q.wakes.pop().item, true
}

// GetFunc is Get for event context: fn runs with Get's results, at
// once when Get would not have blocked, otherwise as an event at the
// point Get's process would have been woken — by a hand-off, or by
// Close with ok false.
func (q *Queue[T]) GetFunc(fn func(item T, ok bool)) {
	if item, ok := q.TryGet(); ok || q.closed {
		fn(item, ok)
		return
	}
	q.getters.push(queueGetter[T]{fn: fn})
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.items.len() == 0 {
		return item, false
	}
	item = q.items.pop()
	q.gets++
	q.admitPutter()
	return item, true
}

// atFire schedules the continuation in w as a func event at the
// current instant, where a process in its place would be dispatched.
func (q *Queue[T]) atFire(w queueWake[T]) {
	if q.fire == nil {
		q.fire = q.runWake
	}
	q.wakes.push(w)
	q.k.At(q.k.now, q.fire)
}

// runWake is the func event behind every continuation: the oldest
// entry of wakes is the one this event was scheduled for.
func (q *Queue[T]) runWake() {
	w := q.wakes.pop()
	if w.get != nil {
		w.get(w.item, w.ok)
	} else {
		w.put(w.ok)
	}
}

// admitPutter moves one parked producer's item into freed space.
// Timed putters whose expiry already fired are dropped: their producer
// has moved on and the item was reported rejected.
func (q *Queue[T]) admitPutter() {
	for q.putters.len() > 0 {
		w := q.putters.pop()
		if w.timed && !w.timer.Stop() {
			continue
		}
		q.items.push(w.item)
		q.puts++
		if w.p != nil {
			q.k.atDispatch(q.k.now, w.p, nil)
		} else {
			q.atFire(queueWake[T]{put: w.fn, ok: true})
		}
		return
	}
}

// Close marks the queue closed and wakes every blocked getter and
// putter; parked continuations run with ok false. Buffered items
// remain retrievable; Get drains them before reporting closure.
// Closing twice is a no-op.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for q.getters.len() > 0 {
		if g := q.getters.pop(); g.p != nil {
			q.k.atDispatch(q.k.now, g.p, closeSentinel{})
		} else {
			q.atFire(queueWake[T]{get: g.fn})
		}
	}
	for q.putters.len() > 0 {
		w := q.putters.pop()
		if w.timed && !w.timer.Stop() {
			continue // its timeout fired first; the producer moved on
		}
		if w.p != nil {
			q.k.atDispatch(q.k.now, w.p, closeSentinel{})
		} else {
			q.atFire(queueWake[T]{put: w.fn})
		}
	}
}
