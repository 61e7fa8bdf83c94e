package sim

import "fmt"

// Serializer models a unit-capacity FIFO resource — a DMA engine, a
// serialized stack stage, a wire serializer — whose occupancy time is
// known when the user arrives. That knowledge collapses the counted
// semaphore's park-on-acquire / sleep / wake-on-release protocol into
// horizon arithmetic: the i-th arrival starts at max(now, horizon),
// occupies the resource for hold, and the horizon advances to its end
// time, all decided at arrival. The process sleeps exactly once,
// straight to its end time, instead of parking on an acquire queue
// and again on a hold sleep.
//
// Timing is identical to NewResource(k, 1) with every user going
// through Use(p, 1, hold): arrival order equals the semaphore's FIFO
// queue order, and max(now, horizon) equals the time Release would
// have admitted the waiter. Only the scheduler traffic differs — a
// contended acquire costs no extra kernel event and no extra
// park/dispatch round trip.
type Serializer struct {
	k       *Kernel
	label   string
	horizon Time // virtual time at which the resource frees up
	busy    Time // total occupied time, for utilization reporting
}

// NewSerializer returns an idle serializer.
func NewSerializer(k *Kernel) *Serializer {
	return &Serializer{k: k, label: edgeSerializer}
}

// SetLabel names the profiler edge that Use-sleeps on this serializer
// are attributed to. The label must be a compile-time constant; see
// DESIGN.md §15.
func (s *Serializer) SetLabel(label string) { s.label = label }

// book occupies the resource for hold starting as soon as it is free
// and returns the time its user is done: the release time plus post.
func (s *Serializer) book(hold, post Time) Time {
	if hold < 0 || post < 0 {
		panic(fmt.Sprintf("sim: serializer use hold %v post %v", hold, post))
	}
	start := s.k.now
	if s.horizon > start {
		start = s.horizon
	}
	s.horizon = start + hold
	s.busy += hold
	return s.horizon + post
}

// Use occupies the resource for hold starting as soon as it is free,
// then keeps the process asleep for a further post after release —
// the idiom for "per-unit engine time, then fixed post-processing
// that doesn't hold the engine". The whole wait is one sleep; the
// resource itself frees at start+hold exactly as if Release had run
// then.
func (s *Serializer) Use(p *Proc, hold, post Time) {
	p.sleepOn(s.book(hold, post)-s.k.now, s.label)
}

// UseFunc is Use for event context: it books the same occupancy and
// schedules fn as the event that would have woken Use's process.
func (s *Serializer) UseFunc(hold, post Time, fn func()) {
	s.k.At(s.book(hold, post), fn)
}

// Utilization reports the fraction of virtual time the resource has
// been occupied since the start of the simulation.
func (s *Serializer) Utilization() float64 {
	now := s.k.now
	if now == 0 {
		return 0
	}
	busy := s.busy
	if s.horizon > now {
		busy -= s.horizon - now // in-progress occupancy not yet elapsed
	}
	return float64(busy) / float64(now)
}
