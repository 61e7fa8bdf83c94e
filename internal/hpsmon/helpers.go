package hpsmon

import "hpsockets/internal/sim"

// The package-level helpers below are the only API instrumented
// components use: each one nil-checks the kernel's monitor first, so
// with telemetry off a hook costs one pointer load and allocates
// nothing. Component and metric/span names must be compile-time
// constants (enforced by the hpslint litname analyzer); dynamic
// context goes in detail arguments, which callers building with fmt
// must guard behind Enabled.

// Enabled reports whether a monitor is attached; call sites that need
// to build a dynamic detail string guard the construction behind it.
func Enabled(k *sim.Kernel) bool { return k.Monitor() != nil }

// Count adds delta to a component counter.
func Count(k *sim.Kernel, component, name string, delta int64) {
	if m := k.Monitor(); m != nil {
		m.Count(k.Now(), component, name, delta)
	}
}

// GaugeSet records the latest value of a component gauge.
func GaugeSet(k *sim.Kernel, component, name string, value int64) {
	if m := k.Monitor(); m != nil {
		m.Gauge(k.Now(), component, name, value)
	}
}

// Observe adds one virtual-time sample to a component histogram.
func Observe(k *sim.Kernel, component, name string, v sim.Time) {
	if m := k.Monitor(); m != nil {
		m.Observe(k.Now(), component, name, v)
	}
}

// Instant records a zero-duration event on a process (and counts it).
func Instant(p *sim.Proc, component, name, detail string) {
	k := p.Kernel()
	if m := k.Monitor(); m != nil {
		m.Instant(k.Now(), p, component, name, detail)
	}
}

// InstantK records a zero-duration event from kernel/event context,
// where no process is running (e.g. a retransmission timer firing).
func InstantK(k *sim.Kernel, component, name, detail string) {
	if m := k.Monitor(); m != nil {
		m.Instant(k.Now(), nil, component, name, detail)
	}
}

// Scope is an open span on a process. The zero value is inert: End and
// Active are no-ops, so call sites need no separate enabled check.
type Scope struct {
	m    sim.Monitor
	p    *sim.Proc
	id   sim.SpanID
	prev sim.SpanID
}

// Begin opens a span on p's current span as parent and makes it the
// process's current span until End. With no monitor attached (or span
// collection disabled) it returns an inert Scope and allocates
// nothing.
func Begin(p *sim.Proc, component, name, detail string) Scope {
	k := p.Kernel()
	m := k.Monitor()
	if m == nil {
		return Scope{}
	}
	prev := p.MonSpan()
	id := m.SpanBegin(k.Now(), p, component, name, detail, prev)
	if id == 0 {
		return Scope{}
	}
	p.SetMonSpan(id)
	return Scope{m: m, p: p, id: id, prev: prev}
}

// End closes the span and restores the process's previous span. Safe
// on the zero Scope.
func (s Scope) End() {
	if s.m == nil {
		return
	}
	s.m.SpanEnd(s.p.Kernel().Now(), s.id)
	s.p.SetMonSpan(s.prev)
}

// Active reports whether the scope holds an open span.
func (s Scope) Active() bool { return s.m != nil }

// ID reports the span id (zero for an inert scope).
func (s Scope) ID() sim.SpanID { return s.id }

// flows is a Collector's flow bookkeeping. A monitor that embeds a
// *Collector inherits it, so its exports keep their flow arrows.
type flows interface {
	flowSend(at sim.Time, stream string, uow int, tag int64, span sim.SpanID)
	flowRecv(at sim.Time, stream string, uow int, tag int64, span sim.SpanID)
}

// FlowSend registers the producer side of one in-flight stream buffer
// under its (stream, uow, tag) key, carrying the current span and send
// time to the consumer side.
func FlowSend(p *sim.Proc, stream string, uow int, tag int64) {
	k := p.Kernel()
	if c, ok := k.Monitor().(flows); ok {
		c.flowSend(k.Now(), stream, uow, tag, p.MonSpan())
	}
}

// FlowRecv resolves the consumer side of an in-flight buffer: the
// collector observes the send-to-deliver latency and links the spans
// causally in the exported trace.
func FlowRecv(p *sim.Proc, stream string, uow int, tag int64) {
	k := p.Kernel()
	if c, ok := k.Monitor().(flows); ok {
		c.flowRecv(k.Now(), stream, uow, tag, p.MonSpan())
	}
}
