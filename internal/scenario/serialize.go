package scenario

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hpsockets/internal/chaos"
	"hpsockets/internal/fault"
	"hpsockets/internal/sim"
)

// Marshal renders the file in canonical form: fixed key order, values
// that differ from the binder's defaults only, links and events in
// canonical order (see canonical), durations in the largest
// evenly-dividing unit, floats in shortest round-trip form. Canonical
// output is a fixed point: Parse(f.Marshal()) re-marshals to the same
// bytes and yields the same scenario, which is what lets shrunk
// reproducers and replay diffs compare scenario files byte-for-byte.
func (f *File) Marshal() []byte {
	var b bytes.Buffer
	s := &f.written
	fmt.Fprintf(&b, "version: %d\n", Version)
	fmt.Fprintf(&b, "name: %s\n", f.Name)
	if f.Description != "" {
		fmt.Fprintf(&b, "description: %s\n", quote(f.Description))
	}
	fmt.Fprintf(&b, "seed: %d\n", s.Seed)
	fmt.Fprintf(&b, "fleet:\n  copies: %d\n", s.Copies)
	b.WriteString("workload:\n")
	writeFields(s, workloadFields, func(key, val string) {
		fmt.Fprintf(&b, "  %s: %s\n", key, val)
	})

	p := canonical(s.Plan)
	type event struct {
		at sim.Time
		it *item
	}
	var links []*item
	var events []event
	addEvent := func(at sim.Time, action string, kv ...string) *item {
		it := &item{}
		it.put("at", durString(at))
		it.put("action", action)
		for i := 0; i < len(kv); i += 2 {
			it.put(kv[i], kv[i+1])
		}
		events = append(events, event{at, it})
		return it
	}
	// Kinds are added in canonical rank, so the stable sort by time
	// below orders equal instants by rank, then canonically.
	for _, pt := range p.Partitions {
		addEvent(pt.From, "partition", "between", "["+pt.A+", "+pt.B+"]", "until", durString(pt.To))
	}
	for _, cr := range p.Crashes {
		addEvent(cr.At, "crash", "node", cr.Node)
	}
	for _, rs := range p.Restarts {
		addEvent(rs.At, "restart", "node", rs.Node)
	}
	for _, sl := range p.Slowdowns {
		addEvent(sl.At, "slowdown", "node", sl.Node, "factor", ftoaCanon(sl.Factor))
	}
	for _, c := range p.Conditions {
		// A whole-run condition is a link; a windowed one is an event.
		it := &item{}
		if c.From == 0 && c.To == 0 {
			links = append(links, it)
		} else {
			it = addEvent(c.From, "condition")
		}
		if c.Src != "" {
			it.put("from", c.Src)
		}
		if c.Dst != "" {
			it.put("to", c.Dst)
		}
		if c.To != 0 {
			it.put("until", durString(c.To))
		}
		writeFields(&c.Profile, profileFields, it.put)
	}
	if len(links) > 0 {
		b.WriteString("links:\n")
	}
	for _, it := range links {
		b.WriteString(it.String())
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	if len(events) > 0 {
		b.WriteString("events:\n")
	}
	for _, e := range events {
		b.WriteString(e.it.String())
	}

	if len(f.Assertions) > 0 {
		b.WriteString("assertions:\n")
		for _, a := range f.Assertions {
			fmt.Fprintf(&b, "  - %s: %s\n", a.Kind, a.value())
		}
	}
	return b.Bytes()
}

// item renders one sequence entry; its first key carries the dash.
type item struct{ strings.Builder }

func (it *item) put(key, val string) {
	if it.Len() == 0 {
		it.WriteString("  - ")
	} else {
		it.WriteString("    ")
	}
	it.WriteString(key + ": " + val + "\n")
}

// canonical returns the plan with every entry list copied and sorted
// into canonical order: by time, then by node names, then by the
// remaining parameters, so a scenario does not depend on the order its
// file lists links and events in. Conditions carry identity-keyed
// random streams, so their order changes no outcome; for the timed
// entries it fixes which of two at the same instant fires first.
func canonical(p fault.Plan) fault.Plan {
	p.Conditions = slices.Clone(p.Conditions)
	slices.SortStableFunc(p.Conditions, func(a, b fault.LinkCondition) int {
		return cmp.Or(cmp.Compare(a.From, b.From), strings.Compare(a.Src, b.Src),
			strings.Compare(a.Dst, b.Dst), cmp.Compare(a.To, b.To),
			strings.Compare(profileKey(a.Profile), profileKey(b.Profile)))
	})
	p.Partitions = slices.Clone(p.Partitions)
	slices.SortStableFunc(p.Partitions, func(a, b fault.Partition) int {
		return cmp.Or(cmp.Compare(a.From, b.From), strings.Compare(a.A, b.A),
			strings.Compare(a.B, b.B), cmp.Compare(a.To, b.To))
	})
	p.Crashes = slices.Clone(p.Crashes)
	slices.SortStableFunc(p.Crashes, func(a, b fault.NodeCrash) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Node, b.Node))
	})
	p.Restarts = slices.Clone(p.Restarts)
	slices.SortStableFunc(p.Restarts, func(a, b fault.NodeRestart) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Node, b.Node))
	})
	p.Slowdowns = slices.Clone(p.Slowdowns)
	slices.SortStableFunc(p.Slowdowns, func(a, b fault.NodeSlowdown) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Node, b.Node),
			cmp.Compare(a.Factor, b.Factor))
	})
	return p
}

func profileKey(p fault.Profile) string {
	return fmt.Sprintf("%d|%d|%s|%d|%v|%s|%s|%s", p.Latency, p.Jitter,
		ftoaCanon(p.LossProb), p.LossEveryN, p.Reject,
		ftoaCanon(p.BandwidthMbps), ftoaCanon(p.CorruptProb), ftoaCanon(p.ReorderProb))
}

// FromScenario lifts a chaos scenario into file form, carrying the
// given assertions along: the inverse of File.Scenario, used to emit
// shrunk reproducers. Legacy LinkFault entries become equivalent
// lossy whole-run conditions (same probabilities; the per-entry random
// stream keys differ, so prefer shrinking DSL-bound scenarios, whose
// plans round-trip exactly). Descriptor pressure has no file syntax
// and is dropped.
func FromScenario(s chaos.Scenario, name, description string, assertions []Assertion) *File {
	conds := slices.Clone(s.Plan.Conditions)
	for _, lf := range s.Plan.Links {
		conds = append(conds, fault.LinkCondition{Src: lf.Src, Dst: lf.Dst,
			Profile: fault.Profile{LossProb: lf.DropProb, CorruptProb: lf.CorruptProb}})
	}
	s.Plan.Conditions, s.Plan.Links, s.Plan.Pressure = conds, nil, nil
	return &File{Name: name, Description: description, Assertions: assertions, written: s}
}

// durString renders a duration in the largest unit that divides it
// evenly, the inverse of parseDuration on every value it emits.
func durString(d sim.Time) string {
	switch {
	case d%sim.Second == 0:
		return fmt.Sprintf("%ds", d/sim.Second)
	case d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// ftoaCanon is the shortest decimal that round-trips through
// strconv.ParseFloat, so probabilities survive serialize/parse cycles
// bit-for-bit.
func ftoaCanon(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// quote renders a double-quoted scalar using only the escapes unquote
// understands.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
