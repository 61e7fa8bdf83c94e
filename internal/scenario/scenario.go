// Package scenario is the declarative chaos-scenario DSL: versioned
// files describing a fleet topology, a workload shape, netem-style
// link condition profiles, timed events, and declarative assertions,
// compiled deterministically into chaos.Scenario + fault.Plan and run
// through the six-invariant chaos checker.
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

	"hpsockets/internal/fault"
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
// the fleet, inverted windows, and friends.
type SemanticError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("%s:%d:%d: scenario: %s", e.File, e.Line, e.Col, e.Msg)
}

// File is one parsed, validated scenario. The producer filter always
// runs on node "src"; consumer copies run on "cons0" .. "consN-1".
type File struct {
	Name        string
	Description string
	Seed        int64
	Fleet       Fleet
	Workload    Workload
	// Links are whole-run netem-style condition profiles on fleet
	// links; windowed conditions are expressed as events instead.
	Links      []Link
	Events     []Event
	Assertions []Assertion
}

// Fleet is the simulated deployment topology.
type Fleet struct {
	// Copies is the number of transparent consumer copies (nodes
	// cons0..consN-1) behind the single producer on node src.
	Copies int
}

// Workload shapes the offered load and the overload-control
// configuration of the pipeline under test.
type Workload struct {
	Transport      string // "tcp" | "socketvia"
	UOWs           int
	BuffersPerUOW  int
	BlockBytes     int
	InboxDepth     int
	Policy         string // "rr" | "dd"
	Shed           string // "block" | "drop-oldest" | "drop-newest" | "degrade"
	CreditWindow   int
	DeadlineBudget sim.Time
	OpTimeout      sim.Time
	RedialAttempts int
	Gap            sim.Time
	SpikeEvery     int
	ConsumerCost   sim.Time
	// CheckpointEvery arms crash-restart recovery on the consumer
	// copies; required (and defaulted by normalization) whenever an
	// event restarts a node.
	CheckpointEvery sim.Time
	// ExactlyOnce arms the per-stream delivery ledger; forced on by
	// normalization whenever an event restarts a node.
	ExactlyOnce bool
}

// Link applies a condition profile to one directed fleet link for the
// whole run. Empty From or To is a wildcard.
type Link struct {
	From, To string
	Profile  fault.Profile
}

// Event is one timed action.
type Event struct {
	At     sim.Time
	Action string // "partition" | "crash" | "restart" | "slowdown" | "condition"
	// Until closes the window for partition and condition events
	// (0 = until the end of the run for conditions).
	Until sim.Time
	// Node names the target of crash, restart and slowdown events.
	Node string
	// A and B name the partitioned pair.
	A, B string
	// Factor scales computation for slowdown events.
	Factor float64
	// From and To name the conditioned link for condition events.
	From, To string
	Profile  fault.Profile
}

// Assertion is one declarative check against the run's report.
type Assertion struct {
	Kind string
	// Name is the invariant name for Kind "invariant": one of
	// accounting, liveness, credits, replay, telemetry.
	Name string
	// N is the bound for count assertions.
	N int
	// D is the bound for duration assertions (end_at_most).
	D sim.Time
}

// Assertion kinds. Count bounds compare against the run report;
// "invariant" requires that no violation with the named prefix was
// recorded; "no_abort" requires the producer finished without error.
const (
	AssertInvariant      = "invariant"
	AssertDeliveredMin   = "delivered_at_least"
	AssertDeliveredMax   = "delivered_at_most"
	AssertShedMin        = "shed_at_least"
	AssertShedMax        = "shed_at_most"
	AssertUnaccountedMax = "unaccounted_at_most"
	AssertRedeliveredMax = "redelivered_at_most"
	AssertEndMax         = "end_at_most"
	AssertNoAbort        = "no_abort"
	// AssertRecovered requires that at least one consumer copy actually
	// restarted mid-run and redelivered after its restart (positive
	// time-to-recover); AssertDuplicatesMax bounds the redeliveries the
	// exactly-once ledger suppressed; AssertMTTRMax bounds the worst
	// restart-to-first-redelivery gap.
	AssertRecovered     = "recovered"
	AssertDuplicatesMax = "duplicates_at_most"
	AssertMTTRMax       = "mttr_at_most"
)

// invariantNames are the violation prefixes the six-invariant chaos
// checker emits, as assertable names.
var invariantNames = map[string]string{
	"accounting":   "accounting",
	"liveness":     "liveness",
	"credits":      "credits",
	"replay":       "replay",
	"telemetry":    "telemetry",
	"exactly-once": "exactly-once",
}

func consName(i int) string { return fmt.Sprintf("cons%d", i) }
