// Package scenario is the declarative chaos-scenario DSL: versioned
// files describing a fleet topology, a workload shape, netem-style
// link condition profiles, timed events, and declarative assertions,
// bound straight into a chaos.Scenario and its fault.Plan and run
// through the six-invariant chaos checker. One key table per mapping
// section (workloadFields, profileFields) and one assertion table
// (assertKinds) drive both reading and Marshal.
//
// The file format is a strict YAML subset (two-space indentation,
// `key: value` mappings, `- ` sequences, `# comments`, double-quoted
// strings, inline `[a, b]` scalar lists) parsed by a stdlib-only
// parser.
//
// Scenario diversity is additive data, not new Go code: the checked-in
// library under scenarios/ (WAN, lossy wireless, cross-DC, cascading
// failure, thundering herd, flash partition) replays byte-identically
// at any worker count, and the chaos shrinker emits minimal failing
// reproducers back out as loadable scenario files.
//
// Errors are split by layer so tooling can tell them apart:
// *ParseError for malformed syntax, *SemanticError for well-formed
// files that describe an invalid scenario. Both carry file positions.
package scenario

import (
	"fmt"

	"hpsockets/internal/chaos"
	"hpsockets/internal/sim"
)

// Version is the scenario format version this package reads and
// writes. Files must declare `version: 1`.
const Version = 1

// ParseError reports malformed scenario syntax with its position.
type ParseError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d:%d: parse: %s", e.File, e.Line, e.Col, e.Msg)
}

// SemanticError reports a well-formed file describing an invalid
// scenario: unknown keys, bad enum values, references to nodes outside
// the fleet, inverted windows, and friends. It carries the same
// position fields as ParseError.
type SemanticError ParseError

func (e *SemanticError) Error() string {
	return fmt.Sprintf("%s:%d:%d: scenario: %s", e.File, e.Line, e.Col, e.Msg)
}

// File is one parsed, validated scenario: the chaos scenario exactly
// as the file writes it, plus the file's own name, description and
// assertions. The producer filter always runs on node "src"; consumer
// copies run on "cons0" .. "consN-1". Links bind to whole-run
// Plan.Conditions, events to the plan's windowed conditions,
// partitions, crashes, restarts and slowdowns.
type File struct {
	Name        string
	Description string
	Assertions  []Assertion
	written     chaos.Scenario
}

// Scenario returns the runnable chaos scenario: the plan in canonical
// order with its seed derived from the scenario seed, normalized. The
// binder has already rejected anything unrunnable, so this is pure and
// infallible, and a file reparsed from Marshal yields the same
// scenario.
func (f *File) Scenario() chaos.Scenario {
	s := f.written
	s.Plan = canonical(s.Plan)
	// The ^0x5eed fold matches chaos.Generate, so a DSL scenario and a
	// generated scenario with the same seed draw the same fault streams.
	s.Plan.Seed = s.Seed ^ 0x5eed
	s = s.Normalized()
	if !s.Valid() {
		// The binder guarantees runnability; reaching here is a bug in
		// this package, not in the scenario file.
		panic(fmt.Sprintf("scenario: %q bound to an invalid chaos scenario", f.Name))
	}
	return s
}

// Assertion is one declarative check against the run's report; Kind
// is one of the kinds in assertKinds.
type Assertion struct {
	Kind string
	// Name is the invariant name for Kind "invariant": one of
	// invariantNames.
	Name string
	// N is the bound for count assertions.
	N int
	// D is the bound for duration assertions (end_at_most, mttr_at_most).
	D sim.Time
}

// invariantNames are the violation prefixes the six-invariant chaos
// checker emits, as assertable names.
var invariantNames = []string{"accounting", "liveness", "credits", "replay", "telemetry", "exactly-once"}

func consName(i int) string { return fmt.Sprintf("cons%d", i) }
