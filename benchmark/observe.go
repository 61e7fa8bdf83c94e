package main

import (
	"strings"
	"time"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
)

// observers attaches the repository's own observers to every kernel a
// rep builds. A nil *observers attaches nothing: timed reps run with
// the ledger and the collector detached. The set-up rep uses a
// counters-only observers value to count delivered blocks and bytes;
// the traced rep turns on the park ledger and causal spans as well.
//
// A ledger and a collector each belong to one kernel, so a rep that
// builds several kernels in turn (pingpong) gets one pair per kernel
// and the accessors sum over them.
type observers struct {
	ledger bool // attach a park ledger
	spans  bool // collect causal spans for the critical path

	kernels []*sim.Kernel
	ledgers []*profile.Ledger
	cols    []*hpsmon.Collector
}

func (o *observers) attach(k *sim.Kernel) {
	if o == nil {
		return
	}
	o.kernels = append(o.kernels, k)
	col := hpsmon.NewCollector("benchmark", hpsmon.Options{Spans: o.spans})
	col.Attach(k)
	o.cols = append(o.cols, col)
	if o.ledger {
		led := profile.NewLedger()
		led.Attach(k)
		o.ledgers = append(o.ledgers, led)
	}
}

// counter sums one hpsmon counter over every observed kernel.
func (o *observers) counter(component, name string) int64 {
	var sum int64
	for _, c := range o.cols {
		sum += c.Registry().Counter(component, name).Value()
	}
	return sum
}

// events sums the kernels' own totals of events fired and procs spawned.
func (o *observers) events() (fired, spawned uint64) {
	for _, k := range o.kernels {
		fired += k.EventsFired()
		spawned += k.ProcsSpawned()
	}
	return fired, spawned
}

// layers are the storeys of the stack the per-layer metrics are keyed
// by, each with the park-edge label prefix it owns and the stem of its
// two ledger metrics (<stem>parks_per_msg, <stem>parked_us_per_msg).
// SocketVIA lives in internal/core and labels its edges "socketvia/".
// Edges a component left unlabelled carry the kernel's own "sim/" names
// (mostly sim/sleep); sim.parks_per_msg is already the total over all
// edges, so theirs are sim.edge_*.
var layers = []struct{ name, edgePrefix, metricStem string }{
	{"cluster", "cluster/", "cluster."},
	{"netsim", "netsim/", "netsim."},
	{"ktcp", "ktcp/", "ktcp."},
	{"via", "via/", "via."},
	{"core", "socketvia/", "core."},
	{"datacutter", "datacutter/", "datacutter."},
	{"vizapp", "vizapp/", "vizapp."},
	{"sim", "sim/", "sim.edge_"},
}

// parkTotals is the park ledger folded over all observed kernels.
type parkTotals struct {
	parks, handoffs, ringHits uint64
	layerParks                map[string]uint64
	layerParked               map[string]sim.Time
}

func (o *observers) parkTotals() parkTotals {
	t := parkTotals{layerParks: map[string]uint64{}, layerParked: map[string]sim.Time{}}
	for _, led := range o.ledgers {
		t.ringHits += led.RingHits()
		for _, e := range led.Edges() {
			t.parks += e.Parks
			t.handoffs += e.Handoffs
			for _, l := range layers {
				if strings.HasPrefix(e.Edge, l.edgePrefix) {
					t.layerParks[l.name] += e.Parks
					t.layerParked[l.name] += e.Parked
					break
				}
			}
		}
	}
	return t
}

// critComponents are the span components the virtual-time critical
// path is reported by. "wire" is the flight between a stream send and
// its delivery.
var critComponents = []string{"ktcp", "via", "socketvia", "datacutter", "wire"}

// critPerUOW extracts the virtual-time critical path of every unit of
// work and reports, per component, the microseconds of it that
// component explains, averaged over the units of work. It needs one
// collector with spans; other reps report nothing.
func (o *observers) critPerUOW() map[string]float64 {
	if len(o.cols) != 1 || !o.spans {
		return nil
	}
	col := o.cols[0]
	var uowPaths []profile.Path
	for _, p := range profile.CriticalPaths(col.Spans(), col.Flows(), col.LastTime()) {
		if p.UOW >= 0 {
			uowPaths = append(uowPaths, p)
		}
	}
	if len(uowPaths) == 0 {
		return nil
	}
	out := map[string]float64{}
	for _, s := range profile.AggregateSegments(uowPaths) {
		out[s.Component] += s.Total.Micros() / float64(len(uowPaths))
	}
	return out
}

// hostSpan is one host-time interval recorded by the benchmark around
// its own calls into the layers. Spans of one workload rep or ladder
// rung share Group; Parent is the id of the span that caused this one
// (0 for a root).
type hostSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Group   string `json:"group"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps host spans in memory until the run ends. A nil tracer
// records nothing, so end-to-end runs pay nothing for it.
type tracer struct {
	t0    time.Time
	spans []hostSpan
}

func newTracer() *tracer { return &tracer{t0: hostNow()} }

// begin opens a span and returns its id.
func (t *tracer) begin(group, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, hostSpan{
		ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		StartNS: hostNow().Sub(t.t0).Nanoseconds(), EndNS: -1,
	})
	return len(t.spans)
}

// end closes a span and reports its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNS = hostNow().Sub(t.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}
