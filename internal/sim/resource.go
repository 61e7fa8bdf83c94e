package sim

import (
	"fmt"
	"slices"
)

// resWaiter is a user waiting to acquire n units: a parked process, or
// a UseFunc continuation, for which t is the length of its hold while
// it waits and the end of the hold once it has the units.
type resWaiter struct {
	p  *Proc
	n  int
	t  Time
	fn func()
}

// Resource is a counted semaphore with a FIFO wait queue, used to
// model contended hardware such as CPUs, DMA engines and I/O ports. It
// also integrates utilization over time for experiment reporting.
//
// Use has an event-context twin, UseFunc, for users that model
// hardware rather than a thread of control (see Queue): continuations
// wait in the same FIFO as processes, and each of Use's two wake-ups,
// the admission by Release and the end of the hold, is a func event in
// the same (time, seq) position.
type Resource struct {
	k     *Kernel
	label string
	cap   int
	inUse int
	queue fifo[resWaiter]

	// Continuations in flight: admitted are those Release let in, in
	// schedule order, which is firing order (their events carry one
	// instant and increasing seq); holds are the running holds, oldest
	// first, which end in any order. One thunk per kind of event, bound
	// at first use, serves them all, so a use allocates nothing.
	admitted fifo[resWaiter]
	holds    []resWaiter
	admit    func()
	endHold  func()

	lastChange Time
	busyInt    float64 // integral of inUse over time, unit-ns
}

// NewResource returns a resource with the given capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, cap: capacity, label: edgeResource}
}

// SetLabel names the profiler edge that acquire-parks and hold-sleeps
// on this resource are attributed to. The label must be a
// compile-time constant; see DESIGN.md §15.
func (r *Resource) SetLabel(label string) { r.label = label }

// Cap reports the capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse reports the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of parked acquirers.
func (r *Resource) QueueLen() int { return r.queue.len() }

func (r *Resource) account() {
	now := r.k.now
	r.busyInt += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

// Utilization reports mean busy fraction (0..1 per unit of capacity)
// since the start of the simulation.
func (r *Resource) Utilization() float64 {
	r.account()
	if r.lastChange == 0 {
		return 0
	}
	return r.busyInt / float64(r.lastChange) / float64(r.cap)
}

// Acquire takes n units, blocking FIFO behind earlier acquirers while
// insufficient units are free.
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.TryAcquire(n) {
		r.queue.push(resWaiter{p: p, n: n})
		p.parkOn(r.label)
	}
}

// TryAcquire takes n units without blocking and reports success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d of capacity %d", n, r.cap))
	}
	if r.queue.len() == 0 && r.inUse+n <= r.cap {
		r.account()
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and admits as many parked acquirers as now
// fit, in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d with %d in use", n, r.inUse))
	}
	r.account()
	r.inUse -= n
	for r.queue.len() > 0 && r.inUse+r.queue.live()[0].n <= r.cap {
		w := r.queue.pop()
		r.inUse += w.n
		if w.p != nil {
			r.k.atDispatch(r.k.now, w.p, nil)
		} else {
			if r.admit == nil {
				r.admit = func() { r.hold(r.admitted.pop()) }
			}
			r.admitted.push(w)
			r.k.At(r.k.now, r.admit)
		}
	}
}

// Use acquires n units, holds them for d, and releases them. This is
// the idiom for "spend d of CPU time".
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.sleepOn(d, r.label)
	r.Release(n)
}

// UseFunc is Use for event context: it takes the units as Acquire
// would, at once or in FIFO turn behind earlier users, holds them for
// d, releases them and runs fn, with a func event wherever Use's
// process would have been woken.
func (r *Resource) UseFunc(n int, d Time, fn func()) {
	w := resWaiter{n: n, t: d, fn: fn}
	if r.TryAcquire(n) {
		r.hold(w)
	} else {
		r.queue.push(w)
	}
}

// hold starts the hold of a continuation that has its units.
func (r *Resource) hold(w resWaiter) {
	if r.endHold == nil {
		r.endHold = r.runEndHold
	}
	w.t += r.k.now
	r.holds = append(r.holds, w)
	r.k.At(w.t, r.endHold)
}

// runEndHold is the func event behind the end of every hold. Events
// fire in (time, seq) order, so the one firing is the oldest hold that
// ends now.
func (r *Resource) runEndHold() {
	i := 0
	for r.holds[i].t != r.k.now {
		i++
	}
	w := r.holds[i]
	r.holds = slices.Delete(r.holds, i, i+1)
	r.Release(w.n)
	w.fn()
}
