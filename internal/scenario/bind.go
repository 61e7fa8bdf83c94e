package scenario

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"hpsockets/internal/chaos"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/fault"
	"hpsockets/internal/sim"
)

// kind is how a table key's scalar is read, checked and written.
type kind int

const (
	kInt   kind = iota // decimal integer in [lo, hi], default def
	kDur               // duration with a unit suffix
	kProb              // number in [0, 1]
	kFloat             // number
	kEnum              // one of enum, stored as its index
	kBool              // true or false
)

// field is one key of a flat mapping section, declared once: allowKeys,
// binding and Marshal all walk the same table in its order.
type field[T any] struct {
	key    string
	kind   kind
	def    int      // default of a kInt key; every other kind defaults to zero
	lo, hi int      // bounds of a kInt key
	enum   []string // names of a kEnum key's values, by index
	always bool     // Marshal writes the key even at its default
	// ptr returns the field's storage in t: *int for kInt, and for a
	// kEnum over an int type; *bool for kBool and a two-valued kEnum;
	// *sim.Time for kDur; *float64 for kProb and kFloat.
	ptr func(t *T) any
}

// workloadFields is the workload section: the offered load and the
// overload-control configuration of the pipeline under test.
var workloadFields = []field[chaos.Scenario]{
	{key: "transport", kind: kEnum, enum: []string{"tcp", "socketvia"}, always: true,
		ptr: func(s *chaos.Scenario) any { return (*int)(&s.Kind) }},
	{key: "uows", kind: kInt, def: 1, lo: 1, hi: 64,
		ptr: func(s *chaos.Scenario) any { return &s.UOWs }},
	{key: "buffers_per_uow", kind: kInt, def: 8, lo: 1, hi: 4096,
		ptr: func(s *chaos.Scenario) any { return &s.BuffersPerUOW }},
	{key: "block_bytes", kind: kInt, def: 4096, lo: 1, hi: 1 << 20,
		ptr: func(s *chaos.Scenario) any { return &s.BlockBytes }},
	{key: "inbox_depth", kind: kInt, def: 2, lo: 1, hi: 1024,
		ptr: func(s *chaos.Scenario) any { return &s.InboxDepth }},
	{key: "policy", kind: kEnum, enum: []string{"rr", "dd"},
		ptr: func(s *chaos.Scenario) any { return (*int)(&s.Policy) }},
	{key: "shed", kind: kEnum, enum: []string{"block", "drop-oldest", "drop-newest", "degrade"},
		ptr: func(s *chaos.Scenario) any { return (*int)(&s.Shed) }},
	{key: "credit_window", kind: kInt, lo: 0, hi: 1024,
		ptr: func(s *chaos.Scenario) any { return &s.CreditWindow }},
	{key: "deadline_budget", kind: kDur,
		ptr: func(s *chaos.Scenario) any { return &s.DeadlineBudget }},
	{key: "op_timeout", kind: kDur,
		ptr: func(s *chaos.Scenario) any { return &s.OpTimeout }},
	{key: "redial_attempts", kind: kInt, lo: 0, hi: 64,
		ptr: func(s *chaos.Scenario) any { return &s.RedialAttempts }},
	{key: "gap", kind: kDur,
		ptr: func(s *chaos.Scenario) any { return &s.Gap }},
	{key: "spike_every", kind: kInt, lo: 0, hi: 4096,
		ptr: func(s *chaos.Scenario) any { return &s.SpikeEvery }},
	{key: "consumer_cost", kind: kDur,
		ptr: func(s *chaos.Scenario) any { return &s.ConsumerCost }},
	// checkpoint_every and exactly_once arm crash-restart recovery;
	// normalization forces both whenever an event restarts a node.
	{key: "checkpoint_every", kind: kDur,
		ptr: func(s *chaos.Scenario) any { return &s.CheckpointEvery }},
	{key: "exactly_once", kind: kBool,
		ptr: func(s *chaos.Scenario) any { return &s.ExactlyOnce }},
}

// profileFields are the netem-style condition keys of a link or a
// condition event.
var profileFields = []field[fault.Profile]{
	{key: "latency", kind: kDur,
		ptr: func(p *fault.Profile) any { return &p.Latency }},
	{key: "jitter", kind: kDur,
		ptr: func(p *fault.Profile) any { return &p.Jitter }},
	{key: "loss", kind: kProb,
		ptr: func(p *fault.Profile) any { return &p.LossProb }},
	{key: "loss_every", kind: kInt, lo: 0, hi: 1 << 20,
		ptr: func(p *fault.Profile) any { return &p.LossEveryN }},
	{key: "mode", kind: kEnum, enum: []string{"drop", "reject"},
		ptr: func(p *fault.Profile) any { return &p.Reject }},
	{key: "bandwidth", kind: kFloat,
		ptr: func(p *fault.Profile) any { return &p.BandwidthMbps }},
	{key: "corrupt", kind: kProb,
		ptr: func(p *fault.Profile) any { return &p.CorruptProb }},
	{key: "reorder", kind: kProb,
		ptr: func(p *fault.Profile) any { return &p.ReorderProb }},
}

func keys[T any](fields []field[T]) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.key
	}
	return out
}

// bind reads the field's key from mapping n into t; an absent key
// leaves the default.
func (f field[T]) bind(b *binder, n *node, t *T) {
	switch p := f.ptr(t).(type) {
	case *sim.Time:
		*p = b.durKey(n, f.key)
	case *float64:
		if *p = b.floatKey(n, f.key); f.kind == kProb && !(*p >= 0 && *p <= 1) {
			b.fail(n, f.key, "%s %g outside [0, 1]", f.key, *p)
		}
	case *int:
		if f.kind == kEnum {
			*p = b.enumKey(n, f.key, f.enum)
		} else if *p = b.intKey(n, f.key, false, f.def); *p < f.lo || *p > f.hi {
			b.fail(n, f.key, "%s %d outside %d..%d", f.key, *p, f.lo, f.hi)
		}
	case *bool:
		if f.kind == kEnum {
			*p = b.enumKey(n, f.key, f.enum) == 1
		} else if v, ok := b.scalarKey(n, f.key, false); ok && v.scalar != "true" && v.scalar != "false" {
			b.fail(n, f.key, "%q is not a boolean (want true or false)", v.scalar)
		} else {
			*p = ok && v.scalar == "true"
		}
	}
}

// enumKey reads key of n as the index of its value in names; absent is
// the first.
func (b *binder) enumKey(n *node, key string, names []string) int {
	v, ok := b.scalarKey(n, key, false)
	if !ok {
		return 0
	}
	i := slices.Index(names, v.scalar)
	if i < 0 {
		b.fail(n, key, "%q is not one of %s", v.scalar, strings.Join(names, ", "))
	}
	return i
}

// text renders the field's value in t as Marshal writes it, and
// reports whether it differs from the default.
func (f field[T]) text(t *T) (string, bool) {
	switch p := f.ptr(t).(type) {
	case *int:
		if f.kind == kEnum {
			return f.enum[*p], *p != 0
		}
		return strconv.Itoa(*p), *p != f.def
	case *bool:
		v := strconv.FormatBool(*p)
		if f.kind == kEnum {
			v = f.enum[0]
			if *p {
				v = f.enum[1]
			}
		}
		return v, *p
	case *sim.Time:
		return durString(*p), *p != 0
	case *float64:
		return ftoaCanon(*p), *p != 0
	}
	panic("scenario: field " + f.key + " has no storage")
}

// bindFields binds every key of fields from mapping n into t.
func bindFields[T any](b *binder, n *node, t *T, fields []field[T]) {
	for _, f := range fields {
		f.bind(b, n, t)
	}
}

// writeFields calls put for every key of fields whose value in t
// differs from its default, or is always written, in table order.
func writeFields[T any](t *T, fields []field[T], put func(key, val string)) {
	for _, f := range fields {
		if v, set := f.text(t); set || f.always {
			put(f.key, v)
		}
	}
}

// binder walks the document tree into a File. All validation that
// makes a scenario runnable by construction lives here, so
// File.Scenario is pure and infallible. The first semantic problem
// stops binding: fail panics with the positioned *SemanticError and
// Parse recovers it.
type binder struct {
	file string
	// later holds the checks that need the whole file (node names
	// against the fleet, crash coverage), queued in file order and run
	// once every section is bound.
	later []func()
}

func (b *binder) fail(n *node, key string, format string, args ...any) {
	line, col := n.line, n.col
	if key != "" {
		line, col = n.pos(key)
	}
	panic(&SemanticError{File: b.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

// bind validates and converts a parsed tree into a File.
func bind(name string, root *node) *File {
	b := &binder{file: name}
	f := &File{}
	if !root.isMap() {
		b.fail(root, "", "scenario root must be a mapping")
	}
	b.allowKeys(root, "version", "name", "description", "seed",
		"fleet", "workload", "links", "events", "assertions")
	if v := b.intKey(root, "version", true, 0); v != Version {
		b.fail(root, "version", "unsupported version %d (this build reads version %d)", v, Version)
	}
	if f.Name = b.strKey(root, "name", true); !validName(f.Name) {
		b.fail(root, "name", "name %q must match [a-z0-9-]+", f.Name)
	}
	f.Description = b.strKey(root, "description", false)
	s := &f.written
	s.Seed = int64(b.intKey(root, "seed", false, 1))

	fl := b.mapKey(root, "fleet")
	b.allowKeys(fl, "copies")
	if s.Copies = b.intKey(fl, "copies", true, 0); s.Copies < 1 || s.Copies > 64 {
		b.fail(fl, "copies", "copies %d outside 1..64", s.Copies)
	}
	w := b.mapKey(root, "workload")
	b.allowKeys(w, keys(workloadFields)...)
	bindFields(b, w, s, workloadFields)
	if s.DeadlineBudget > 0 && s.Shed == datacutter.Block {
		b.fail(w, "deadline_budget",
			"deadline_budget requires a shedding policy (shed: block would have nowhere to put expired buffers)")
	}

	for _, item := range b.seqKey(root, "links") {
		if !item.isMap() {
			b.fail(item, "", "each link is a mapping")
		}
		b.condition(s, item, 0, false)
	}
	for _, item := range b.seqKey(root, "events") {
		b.event(s, item)
	}
	for _, item := range b.seqKey(root, "assertions") {
		f.Assertions = append(f.Assertions, b.assertion(item))
	}
	for _, check := range b.later {
		check()
	}
	// Crashes must leave a live consumer copy. Without restarts that is a
	// count; with them a sweep, the one the chaos harness's validity
	// rule runs, so bound scenarios are valid by construction.
	if len(s.Plan.Restarts) == 0 {
		if len(s.Plan.Crashes) >= s.Copies {
			b.fail(root, "events", "%d crashes would leave no live consumer of %d copies",
				len(s.Plan.Crashes), s.Copies)
		}
	} else if at, down := chaos.AllDownAt(s.Plan, s.Copies); down {
		b.fail(root, "events",
			"at %s every consumer copy of %d is down; stagger the crashes or restart sooner",
			durString(at), s.Copies)
	}
	return f
}

var validName = regexp.MustCompile(`^[a-z0-9-]+$`).MatchString

// condition binds a link (a whole-run condition) or a condition event
// starting at at into the plan.
func (b *binder) condition(s *chaos.Scenario, item *node, at sim.Time, event bool) {
	allowed, what := []string{"from", "to"}, "link"
	if event {
		allowed, what = []string{"at", "action", "from", "to", "until"}, "condition"
	}
	b.allowKeys(item, append(allowed, keys(profileFields)...)...)
	c := fault.LinkCondition{Src: b.strKey(item, "from", false), Dst: b.strKey(item, "to", false), From: at}
	if c.To = b.durKey(item, "until"); c.To != 0 && c.To <= at {
		b.fail(item, "until", "condition until %v must come after at %v", c.To, at)
	}
	bindFields(b, item, &c.Profile, profileFields)
	switch p := c.Profile; {
	case !(p.BandwidthMbps >= 0):
		b.fail(item, "bandwidth", "bandwidth must be positive Mbps")
	case p.Jitter > 0 && p.Latency == 0:
		b.fail(item, "jitter", "jitter needs a latency to jitter around")
	case p.Reject && !p.Lossy():
		b.fail(item, "mode", "mode: reject needs loss or loss_every to apply to")
	case p.Zero():
		b.fail(item, "", "%s profile conditions nothing", what)
	}
	s.Plan.Conditions = append(s.Plan.Conditions, c)
	b.known(s, item, "from", c.Src, true)
	b.known(s, item, "to", c.Dst, true)
}

// event binds one timed event into the plan.
func (b *binder) event(s *chaos.Scenario, item *node) {
	if !item.isMap() {
		b.fail(item, "", "each event is a mapping")
	}
	pl := &s.Plan
	at := b.durKey(item, "at")
	switch action := b.strKey(item, "action", true); action {
	case "partition":
		b.allowKeys(item, "at", "action", "between", "until")
		pair := b.seqKey(item, "between")
		if len(pair) != 2 {
			b.fail(item, "between", "partition needs between: [a, b]")
		}
		pt := fault.Partition{A: b.scalarOf(pair[0]), B: b.scalarOf(pair[1]), From: at,
			To: b.durKey(item, "until")}
		if pt.To <= at {
			b.fail(item, "until", "partition until %v must come after at %v", pt.To, at)
		}
		pl.Partitions = append(pl.Partitions, pt)
		b.known(s, item, "between", pt.A, false)
		b.known(s, item, "between", pt.B, false)
	case "crash":
		b.allowKeys(item, "at", "action", "node")
		node := b.strKey(item, "node", true)
		pl.Crashes = append(pl.Crashes, fault.NodeCrash{Node: node, At: at})
		b.known(s, item, "node", node, false)
		b.later = append(b.later, func() {
			if node == "src" {
				b.fail(item, "node", "crashing src kills the producer; crash a consumer instead")
			}
		})
	case "restart":
		b.allowKeys(item, "at", "action", "node")
		node := b.strKey(item, "node", true)
		pl.Restarts = append(pl.Restarts, fault.NodeRestart{Node: node, At: at})
		b.known(s, item, "node", node, false)
		b.later = append(b.later, func() {
			if !slices.ContainsFunc(pl.Crashes, func(cr fault.NodeCrash) bool {
				return cr.Node == node && cr.At < at
			}) {
				b.fail(item, "node", "restart of %q needs a strictly earlier crash of the same node", node)
			}
		})
	case "slowdown":
		b.allowKeys(item, "at", "action", "node", "factor")
		sl := fault.NodeSlowdown{Node: b.strKey(item, "node", true), At: at,
			Factor: b.floatKey(item, "factor")}
		if !(sl.Factor >= 1) {
			b.fail(item, "factor", "slowdown factor %g must be >= 1", sl.Factor)
		}
		pl.Slowdowns = append(pl.Slowdowns, sl)
		b.known(s, item, "node", sl.Node, false)
	case "condition":
		b.condition(s, item, at, true)
	default:
		b.fail(item, "action",
			"unknown action %q (want partition, crash, restart, slowdown, or condition)", action)
	}
}

// assertion binds one `kind: value` assertion.
func (b *binder) assertion(item *node) Assertion {
	if !item.isMap() || len(item.keys) != 1 {
		b.fail(item, "", "each assertion is a single `check: bound` mapping")
	}
	kind := item.keys[0]
	val := item.vals[kind]
	k, ok := assertKindOf(kind)
	if !ok {
		b.fail(item, kind, "unknown assertion %q", kind)
	}
	a := Assertion{Kind: kind}
	switch k.arg {
	case argName:
		if a.Name = b.scalarOf(val); !slices.Contains(invariantNames, a.Name) {
			b.fail(item, kind, "unknown invariant %q (want accounting, liveness, credits, replay, telemetry, or exactly-once)", a.Name)
		}
	case argCount:
		if a.N = b.intOf(val); a.N < 0 {
			b.fail(item, kind, "%s bound must be non-negative", kind)
		}
	case argDur:
		if a.D = b.durOf(val); a.D <= 0 {
			b.fail(item, kind, "%s needs a positive duration", kind)
		}
	case argTrue:
		if b.scalarOf(val) != "true" {
			b.fail(item, kind, "%s takes the value true", kind)
		}
	}
	return a
}

// known queues the check that name is a fleet node (or, where
// wildcardOK, empty).
func (b *binder) known(s *chaos.Scenario, n *node, key, name string, wildcardOK bool) {
	b.later = append(b.later, func() {
		if name == "" && !wildcardOK {
			b.fail(n, key, "node name required")
		}
		if name == "" || name == "src" {
			return
		}
		for i := 0; i < s.Copies; i++ {
			if name == consName(i) {
				return
			}
		}
		b.fail(n, key, "unknown node %q (fleet has src and cons0..cons%d)", name, s.Copies-1)
	})
}

// ---- typed accessors over nodes ----

func (b *binder) allowKeys(n *node, allowed ...string) {
	for _, k := range n.keys {
		if !slices.Contains(allowed, k) {
			b.fail(n, k, "unknown key %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
}

// mapKey returns the required mapping section key of n.
func (b *binder) mapKey(n *node, key string) *node {
	child, ok := n.vals[key]
	if !ok {
		b.fail(n, "", "missing required section %q", key)
	}
	if !child.isMap() {
		b.fail(n, key, "%q must be a mapping", key)
	}
	return child
}

func (b *binder) seqKey(n *node, key string) []*node {
	child, ok := n.vals[key]
	if !ok {
		return nil
	}
	if !child.isSeq {
		b.fail(n, key, "%q must be a sequence", key)
	}
	return child.items
}

func (b *binder) scalarKey(n *node, key string, required bool) (*node, bool) {
	child, ok := n.vals[key]
	if !ok && required {
		b.fail(n, "", "missing required key %q", key)
	}
	if ok && !child.isScal {
		b.fail(n, key, "%q must be a scalar", key)
	}
	return child, ok
}

func (b *binder) strKey(n *node, key string, required bool) string {
	if child, ok := b.scalarKey(n, key, required); ok {
		return child.scalar
	}
	return ""
}

func (b *binder) intKey(n *node, key string, required bool, def int) int {
	child, ok := b.scalarKey(n, key, required)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(child.scalar, 10, 64)
	if err != nil {
		b.fail(n, key, "%q is not an integer", child.scalar)
	}
	return int(v)
}

func (b *binder) floatKey(n *node, key string) float64 {
	child, ok := b.scalarKey(n, key, false)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(child.scalar, 64)
	if err != nil {
		b.fail(n, key, "%q is not a number", child.scalar)
	}
	return v + 0 // -0 reads as 0
}

func (b *binder) durKey(n *node, key string) sim.Time {
	if child, ok := b.scalarKey(n, key, false); ok {
		return b.durOf(child)
	}
	return 0
}

// ---- direct scalar coercions (sequence items, assertion values) ----

func (b *binder) scalarOf(n *node) string {
	if !n.isScal {
		b.fail(n, "", "expected a scalar")
	}
	return n.scalar
}

func (b *binder) intOf(n *node) int {
	s := b.scalarOf(n)
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		b.fail(n, "", "%q is not an integer", s)
	}
	return int(v)
}

func (b *binder) durOf(n *node) sim.Time {
	d, err := parseDuration(b.scalarOf(n))
	if err != nil {
		b.fail(n, "", "%v", err)
	}
	return d
}

// parseDuration reads a virtual-time duration: a decimal number with
// one of the unit suffixes ns, us, ms, s.
func parseDuration(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		unit   sim.Time
	}{
		{"ns", sim.Nanosecond},
		{"us", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		if num == "" || strings.HasSuffix(num, "n") || strings.HasSuffix(num, "u") ||
			strings.HasSuffix(num, "m") {
			continue // e.g. "5ms" reaching the "s" case with num "5m"
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || !(v >= 0) {
			return 0, fmt.Errorf("%q is not a duration (want e.g. 250us, 5ms)", s)
		}
		if d := v*float64(u.unit) + 0.5; d < math.MaxInt64 {
			return sim.Time(d), nil
		}
		return 0, fmt.Errorf("%q exceeds the longest duration, %s", s, durString(math.MaxInt64))
	}
	return 0, fmt.Errorf("%q is not a duration (want a number with ns, us, ms, or s)", s)
}
