package sim

// waiterRef records a waiter on a signal or condition: a parked
// process, pinned to the wait generation it parked under, or the
// continuation a WaitFunc left behind. A ref whose generation no longer
// matches the proc's current one (the wait was abandoned — typically by
// a timed-wait expiry) is skipped at fire time.
type waiterRef struct {
	p   *Proc
	gen uint64
	fn  func()
}

// wake schedules the resumption of w at the current instant: a
// process's conditional wake-up carrying v, or a continuation as a
// plain event in the same (time, seq) position.
func (k *Kernel) wake(w waiterRef, v any) {
	if w.p != nil {
		k.atWake(k.now, w.p, w.gen, v)
	} else {
		k.At(k.now, w.fn)
	}
}

// Signal is a one-shot broadcast event. Processes Wait on it; Fire
// wakes all current and future waiters with the fired value. The
// kernel wakes waiters via zero-delay events so firing is safe from
// both process and event context. WaitFunc is Wait's event-context
// twin (see Queue): continuations wait in the same list as processes
// and Fire schedules each in its turn.
type Signal struct {
	k       *Kernel
	label   string
	fired   bool
	value   any
	waiters []waiterRef
}

// NewSignal returns an unfired signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k, label: edgeSignal} }

// SetLabel names the profiler edge that waits on this signal park on.
// The label must be a compile-time constant; see DESIGN.md §15.
func (s *Signal) SetLabel(label string) { s.label = label }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Value returns the fired value (nil before firing).
func (s *Signal) Value() any { return s.value }

// Fire fires the signal with v, waking every waiter. Firing twice
// panics: one-shot semantics keep protocol state machines honest.
func (s *Signal) Fire(v any) {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.value = v
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.k.wake(w, v)
	}
}

// WaitFunc is Proc.Wait for event context: fn runs at once if the
// signal has fired, as Wait returns at once, and otherwise as an event
// at the point where Fire would have woken Wait's process. The fired
// value is the signal's Value.
func (s *Signal) WaitFunc(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, waiterRef{fn: fn})
}

// Barrier counts down from n and fires an underlying signal when all
// parties have arrived. The zero value is not usable; use NewBarrier.
type Barrier struct {
	remaining int
	sig       *Signal
}

// NewBarrier returns a barrier expecting n arrivals.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs a positive count")
	}
	return &Barrier{remaining: n, sig: NewSignal(k)}
}

// SetLabel names the profiler edge that waits on this barrier park on.
func (b *Barrier) SetLabel(label string) { b.sig.SetLabel(label) }

// Arrive records one arrival; the last arrival fires the barrier.
func (b *Barrier) Arrive() {
	if b.remaining <= 0 {
		panic("sim: barrier arrival after completion")
	}
	b.remaining--
	if b.remaining == 0 {
		b.sig.Fire(nil)
	}
}

// Wait blocks p until all parties have arrived.
func (b *Barrier) Wait(p *Proc) { p.Wait(b.sig) }

// Remaining reports how many arrivals are still outstanding.
func (b *Barrier) Remaining() int { return b.remaining }
