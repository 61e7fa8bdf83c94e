package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hpsockets/internal/chaos"
)

// Result is the outcome of running one scenario file: the harness
// report (all six chaos invariants) plus the file's own declarative
// assertions.
type Result struct {
	File     *File
	Report   chaos.Report
	Failures []string // failed assertions, in file order
}

// OK reports whether every invariant and every assertion held.
func (r Result) OK() bool {
	return r.Report.OK() && len(r.Failures) == 0
}

// Render is the deterministic human- and diff-facing summary. Two runs
// of the same file render byte-identically (that is invariant 4 plus
// the assertion layer being pure); CI diffs this output across runs
// and worker counts.
func (r Result) Render() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s: %s\n", r.File.Name, verdict)
	b.WriteString(r.Report.Canonical())
	b.WriteByte('\n')
	for _, a := range r.File.Assertions {
		if desc, msg := a.check(r.Report); msg != "" {
			fmt.Fprintf(&b, "assert %s: FAIL: %s\n", desc, msg)
		} else {
			fmt.Fprintf(&b, "assert %s: ok\n", desc)
		}
	}
	return b.String()
}

// RunFile compiles and runs the scenario through the replay-checked
// harness (two runs, byte-compared) and evaluates its assertions.
func RunFile(f *File) Result {
	rep := chaos.Check(f.Scenario())
	return Result{File: f, Report: rep, Failures: Evaluate(f, rep)}
}

// Evaluate checks the file's assertions against a report and returns
// one message per failed assertion.
func Evaluate(f *File, rep chaos.Report) []string {
	var out []string
	for _, a := range f.Assertions {
		if desc, msg := a.check(rep); msg != "" {
			out = append(out, fmt.Sprintf("%s: %s", desc, msg))
		}
	}
	return out
}

// Value types of an assertion: what the file writes after the kind.
const (
	argName  = iota // an invariant name, Assertion.Name
	argCount        // a non-negative count, Assertion.N
	argDur          // a positive duration, Assertion.D
	argTrue         // the literal true
)

// assertKind is one assertion kind: the type of its value, and its
// check, which returns "" when the assertion holds against the report,
// else the reason.
type assertKind struct {
	kind  string
	arg   int
	check func(a Assertion, r chaos.Report) string
}

// assertKinds is the one table of assertion kinds; binding, Marshal,
// Render and Evaluate all look kinds up here. Count bounds compare
// against the run report; "invariant" requires that no violation with
// the named prefix was recorded; "recovered" that a consumer copy
// restarted mid-run and redelivered after its restart; "no_abort" that
// the producer finished without error.
var assertKinds = []assertKind{
	{"invariant", argName, func(a Assertion, r chaos.Report) string {
		for _, v := range r.Violations {
			if strings.HasPrefix(v, a.Name+":") {
				return v
			}
		}
		return ""
	}},
	{"delivered_at_least", argCount, func(a Assertion, r chaos.Report) string { return under("delivered", r.Delivered, a.N) }},
	{"delivered_at_most", argCount, func(a Assertion, r chaos.Report) string { return over("delivered", r.Delivered, a.N) }},
	{"shed_at_least", argCount, func(a Assertion, r chaos.Report) string { return under("shed", r.Shed, a.N) }},
	{"shed_at_most", argCount, func(a Assertion, r chaos.Report) string { return over("shed", r.Shed, a.N) }},
	{"unaccounted_at_most", argCount, func(a Assertion, r chaos.Report) string { return over("unaccounted", r.Unaccounted, a.N) }},
	{"redelivered_at_most", argCount, func(a Assertion, r chaos.Report) string { return over("redelivered", r.Redelivered, a.N) }},
	{"end_at_most", argDur, func(a Assertion, r chaos.Report) string { return over("run ended at", r.End, a.D) }},
	{"no_abort", argTrue, func(a Assertion, r chaos.Report) string {
		if r.Aborted {
			return "producer aborted"
		}
		if r.GroupErr != "" {
			return "group error: " + r.GroupErr
		}
		return ""
	}},
	{"recovered", argTrue, func(a Assertion, r chaos.Report) string {
		if r.Restarts == 0 {
			return "no consumer copy restarted"
		}
		if r.MTTR == 0 {
			return "restarted copy never redelivered (restart fired after quiesce?)"
		}
		return ""
	}},
	// duplicates_at_most bounds the redeliveries the exactly-once ledger
	// suppressed; mttr_at_most the worst restart-to-first-redelivery gap.
	{"duplicates_at_most", argCount, func(a Assertion, r chaos.Report) string {
		if r.Duplicates > uint64(a.N) {
			return fmt.Sprintf("ledger suppressed %d duplicates > %d", r.Duplicates, a.N)
		}
		return ""
	}},
	{"mttr_at_most", argDur, func(a Assertion, r chaos.Report) string { return over("recovery took", r.MTTR, a.D) }},
}

// over and under render a failed bound as "what got op limit", or ""
// when the bound holds.
func over[T cmp.Ordered](what string, got, limit T) string {
	if got > limit {
		return fmt.Sprintf("%s %v > %v", what, got, limit)
	}
	return ""
}

func under[T cmp.Ordered](what string, got, limit T) string {
	if got < limit {
		return fmt.Sprintf("%s %v < %v", what, got, limit)
	}
	return ""
}

func assertKindOf(kind string) (assertKind, bool) {
	i := slices.IndexFunc(assertKinds, func(k assertKind) bool { return k.kind == kind })
	if i < 0 {
		return assertKind{}, false
	}
	return assertKinds[i], true
}

// value renders the assertion's value as the file writes it.
func (a Assertion) value() string {
	k, _ := assertKindOf(a.Kind)
	switch k.arg {
	case argName:
		return a.Name
	case argCount:
		return strconv.Itoa(a.N)
	case argDur:
		return durString(a.D)
	}
	return "true"
}

// check describes the assertion as Render and Evaluate name it, and
// returns "" as the failure when it holds against the report, else the
// reason.
func (a Assertion) check(r chaos.Report) (desc, failure string) {
	k, _ := assertKindOf(a.Kind)
	if desc = a.Kind; k.arg != argTrue {
		desc += " " + a.value()
	}
	return desc, k.check(a, r)
}

// ShrinkFile reduces a failing scenario file to a minimal reproducer
// file via the chaos shrinker, preserving "some invariant or assertion
// still fails" as the predicate, and returns the reproducer (named
// <name>-min) plus the number of harness runs spent. A passing file
// comes back unchanged under its own name.
func ShrinkFile(f *File, budget int) (*File, int) {
	fails := func(c chaos.Scenario) bool {
		rep := chaos.Check(c)
		return !rep.OK() || len(Evaluate(f, rep)) > 0
	}
	shrunk, runs := chaos.ShrinkWith(f.Scenario(), budget, fails)
	if !fails(shrunk) {
		return f, runs + 2
	}
	min := FromScenario(shrunk, f.Name+"-min",
		"minimal failing reproducer shrunk from "+f.Name, f.Assertions)
	return min, runs + 2
}
