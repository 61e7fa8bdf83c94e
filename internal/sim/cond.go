package sim

// Cond is a broadcast condition variable for simulation processes.
// Unlike Signal it can fire repeatedly: each Broadcast wakes the
// current waiters and leaves the condition armed for the next
// generation. Use it in the classic loop shape:
//
//	for !predicate() {
//		cond.Wait(p)
//	}
//
// Cond keeps its waiter list directly (rather than through a
// throwaway Signal per broadcast) and reuses the slice's storage
// across generations: Broadcast on a streaming connection is a
// per-segment operation and must not allocate.
//
// WaitFunc is Wait's event-context twin (see Queue): continuations wait
// in the same list as processes and Broadcast schedules each in its
// turn.
type Cond struct {
	k       *Kernel
	label   string
	waiters []waiterRef
}

// NewCond returns a condition variable on kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k, label: edgeCond} }

// SetLabel names the profiler edge that waits on this condition park
// on. The label must be a compile-time constant; see DESIGN.md §15.
func (c *Cond) SetLabel(label string) { c.label = label }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, waiterRef{p: p, gen: p.beginWait()})
	p.parkOn(c.label)
}

// WaitFunc is Wait for event context: fn runs as an event at the next
// Broadcast, at the point where Wait's process would have been woken.
func (c *Cond) WaitFunc(fn func()) {
	c.waiters = append(c.waiters, waiterRef{fn: fn})
}

// WaitTimeout parks p until the next Broadcast or until d elapses; it
// reports whether a broadcast arrived.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	gen := p.beginWait()
	c.waiters = append(c.waiters, waiterRef{p: p, gen: gen})
	t := c.k.atWake(c.k.now+d, p, gen, timeoutSentinel{})
	got := p.parkOn(c.label)
	if _, isTimeout := got.(timeoutSentinel); isTimeout {
		return false
	}
	t.Stop()
	return true
}

// Broadcast wakes all current waiters. Waiters whose timed wait
// already expired are filtered by the wake events' generation check.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, w := range ws {
		c.k.wake(w, nil)
	}
}
