// Package hpsmon is the telemetry layer of the simulated stack: a
// per-kernel Collector gathering typed metrics (counters, gauges,
// virtual-time histograms) and causal spans (begin/end pairs with
// parent links) from instrumented components, with deterministic
// renderings — a sorted metrics table/CSV, a Chrome trace-event JSON
// loadable in chrome://tracing or Perfetto, and a text flame summary.
//
// Everything runs on virtual time, so two runs of the same experiment
// produce byte-identical telemetry, and per-cell collectors merged in
// canonical order make the output independent of the worker count.
// With no collector attached every instrumentation hook is one nil
// check of the kernel's monitor, so the zero-telemetry hot path stays
// allocation-free and headline figures stay byte-identical.
package hpsmon

import (
	"hpsockets/internal/sim"
)

// Options configures a Collector.
type Options struct {
	// Spans enables causal span collection. Metrics are always
	// collected; spans cost memory proportional to event count, so
	// grid-wide metrics runs leave them off and `hps trace` turns
	// them on for a single cell.
	Spans bool
}

// Span is one recorded causal span: a named interval of virtual time
// on one simulation process, linked to the span that caused it.
type Span struct {
	ID     sim.SpanID
	Parent sim.SpanID
	// Proc is the spawn-order id of the process the span ran on (the
	// exported thread id); kernel-context spans use proc 0's slot with
	// ProcName "kernel".
	Proc      uint64
	ProcName  string
	Component string
	Name      string
	Detail    string
	Start     sim.Time
	// End is the close time, or -1 while the span is open (a process
	// parked forever when the run stopped leaves its span open).
	End sim.Time
}

// instant is a zero-duration recorded event.
type instant struct {
	At        sim.Time
	Proc      uint64
	ProcName  string
	Parent    sim.SpanID
	Component string
	Name      string
	Detail    string
}

// flowKey correlates a producer-side stream send with its
// consumer-side delivery across a simulated connection: the tuple is
// unique per in-flight buffer (stream name, unit of work, block tag).
type flowKey struct {
	stream string
	uow    int
	tag    int64
}

// flowOrigin remembers the sending span and time under a flowKey.
type flowOrigin struct {
	span sim.SpanID
	at   sim.Time
}

// Flow is one recorded causal edge between spans on different
// processes: the consumer span To observed at time At data sent from
// the producer span From. It is exported as a Chrome trace flow arrow
// and consumed by internal/profile as the cross-wire edges of the
// critical-path DAG.
type Flow struct {
	From, To sim.SpanID
	At       sim.Time
}

// Collector implements sim.Monitor for one kernel. It is not
// goroutine-safe: a collector belongs to exactly one simulation
// kernel, which serializes all activity; parallel experiment cells
// each use their own collector and merge through a Set.
type Collector struct {
	name    string
	opts    Options
	reg     *Registry
	spans   []Span
	flows   []Flow
	origins map[flowKey]flowOrigin
	insts   []instant
	// last is the latest virtual time any event carried, used to close
	// still-open spans at export.
	last sim.Time
}

// NewCollector returns a collector named for its experiment cell.
func NewCollector(name string, opts Options) *Collector {
	return &Collector{
		name:    name,
		opts:    opts,
		reg:     NewRegistry(),
		origins: make(map[flowKey]flowOrigin),
	}
}

// Name reports the collector's cell name.
func (c *Collector) Name() string { return c.name }

// Registry exposes the collector's metrics.
func (c *Collector) Registry() *Registry { return c.reg }

// Spans returns the recorded spans in begin order. Span ids are
// sequential from 1 in that order, so Spans()[i].ID == i+1.
func (c *Collector) Spans() []Span { return c.spans }

// Flows returns the recorded cross-process causal edges in record
// (delivery-time) order.
func (c *Collector) Flows() []Flow { return c.flows }

// LastTime reports the latest virtual time any recorded event
// carried; exports use it to close still-open spans.
func (c *Collector) LastTime() sim.Time { return c.last }

// Attach installs the collector as the kernel's monitor.
func (c *Collector) Attach(k *sim.Kernel) { k.SetMonitor(c) }

func (c *Collector) touch(at sim.Time) {
	if at > c.last {
		c.last = at
	}
}

// Count implements sim.Monitor.
func (c *Collector) Count(at sim.Time, componentName, name string, delta int64) {
	c.touch(at)
	c.reg.Counter(componentName, name).v += delta
}

// Gauge implements sim.Monitor.
func (c *Collector) Gauge(at sim.Time, componentName, name string, value int64) {
	c.touch(at)
	g := c.reg.Gauge(componentName, name)
	g.v, g.set = value, true
}

// Observe implements sim.Monitor.
func (c *Collector) Observe(at sim.Time, componentName, name string, v sim.Time) {
	c.touch(at)
	c.reg.Histogram(componentName, name).Observe(v)
}

func procIdentity(p *sim.Proc) (uint64, string) {
	if p == nil {
		return 0, "kernel"
	}
	// Spawn ids start at 0; shift by one so the kernel keeps slot 0.
	return p.ID() + 1, p.Name()
}

// SpanBegin implements sim.Monitor. Span ids are assigned sequentially
// from 1 in begin order, which is deterministic under the kernel's
// total event order.
func (c *Collector) SpanBegin(at sim.Time, p *sim.Proc, componentName, name, detail string, parent sim.SpanID) sim.SpanID {
	if !c.opts.Spans {
		return 0
	}
	c.touch(at)
	tid, pname := procIdentity(p)
	c.spans = append(c.spans, Span{
		ID:        sim.SpanID(len(c.spans) + 1),
		Parent:    parent,
		Proc:      tid,
		ProcName:  pname,
		Component: componentName,
		Name:      name,
		Detail:    detail,
		Start:     at,
		End:       -1,
	})
	return sim.SpanID(len(c.spans))
}

// SpanEnd implements sim.Monitor.
func (c *Collector) SpanEnd(at sim.Time, id sim.SpanID) {
	if id == 0 || int(id) > len(c.spans) {
		return
	}
	c.touch(at)
	c.spans[id-1].End = at
}

// Instant implements sim.Monitor.
func (c *Collector) Instant(at sim.Time, p *sim.Proc, componentName, name, detail string) {
	c.touch(at)
	c.reg.Counter(componentName, name).v++
	if !c.opts.Spans {
		return
	}
	tid, pname := procIdentity(p)
	var parent sim.SpanID
	if p != nil {
		parent = p.MonSpan()
	}
	c.insts = append(c.insts, instant{
		At: at, Proc: tid, ProcName: pname, Parent: parent,
		Component: componentName, Name: name, Detail: detail,
	})
}

// flowSend registers the producer side of one in-flight buffer.
func (c *Collector) flowSend(at sim.Time, stream string, uow int, tag int64, span sim.SpanID) {
	c.touch(at)
	c.origins[flowKey{stream, uow, tag}] = flowOrigin{span: span, at: at}
}

// flowRecv resolves the consumer side: it observes the send-to-deliver
// latency into the stream's histogram and, when both sides have spans,
// records a causal edge for the Chrome trace.
func (c *Collector) flowRecv(at sim.Time, stream string, uow int, tag int64, span sim.SpanID) {
	key := flowKey{stream, uow, tag}
	o, ok := c.origins[key]
	if !ok {
		return
	}
	delete(c.origins, key)
	c.touch(at)
	c.reg.Histogram("datacutter", "block-latency").Observe(at - o.at)
	if o.span != 0 && span != 0 {
		c.flows = append(c.flows, Flow{From: o.span, To: span, At: at})
	}
}
