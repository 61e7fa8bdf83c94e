package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hpsockets/internal/chaos"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/fault"
	"hpsockets/internal/sim"
)

const happyYAML = `# A full-featured scenario exercising every construct.
version: 1
name: full-house
description: "uses \"every\" construct\n(two lines)"
seed: 7
fleet:
  copies: 2
workload:
  transport: socketvia
  uows: 2
  buffers_per_uow: 10
  block_bytes: 2048
  inbox_depth: 3
  policy: dd
  shed: drop-oldest
  credit_window: 4
  deadline_budget: 8ms
  op_timeout: 5ms
  redial_attempts: 2
  gap: 50us
  spike_every: 2
  consumer_cost: 25us
links:
  - from: src
    to: cons0
    latency: 250us   # netem-style delay
    jitter: 50us
    loss: 0.01
events:
  - at: 1ms
    action: partition
    between: [src, cons1]
    until: 3ms
  - at: 2ms
    action: slowdown
    node: cons0
    factor: 2.5
  - at: 4ms
    action: condition
    from: src
    to: cons1
    until: 6ms
    loss_every: 9
    mode: reject
  - at: 5ms
    action: crash
    node: cons1
assertions:
  - invariant: accounting
  - invariant: liveness
  - delivered_at_least: 10
  - shed_at_most: 40
  - end_at_most: 9s
  - no_abort: true
`

// TestParseHappyYAML: every construct binds to the chaos scenario it
// describes, links and events straight into the fault plan.
func TestParseHappyYAML(t *testing.T) {
	f, err := Parse("full.yaml", []byte(happyYAML))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "full-house" {
		t.Fatalf("name = %q", f.Name)
	}
	if want := "uses \"every\" construct\n(two lines)"; f.Description != want {
		t.Fatalf("description = %q, want %q", f.Description, want)
	}
	want := chaos.Scenario{
		Seed: 7, Kind: core.KindSocketVIA, Copies: 2, UOWs: 2, BuffersPerUOW: 10,
		BlockBytes: 2048, InboxDepth: 3, Policy: datacutter.DemandDriven,
		Shed: datacutter.DropOldest, CreditWindow: 4, DeadlineBudget: 8 * sim.Millisecond,
		OpTimeout: 5 * sim.Millisecond, RedialAttempts: 2, Gap: 50 * sim.Microsecond,
		SpikeEvery: 2, ConsumerCost: 25 * sim.Microsecond,
		Plan: fault.Plan{
			Seed: 7 ^ 0x5eed,
			Conditions: []fault.LinkCondition{
				{Src: "src", Dst: "cons0", Profile: fault.Profile{
					Latency: 250 * sim.Microsecond, Jitter: 50 * sim.Microsecond, LossProb: 0.01}},
				{Src: "src", Dst: "cons1", From: 4 * sim.Millisecond, To: 6 * sim.Millisecond,
					Profile: fault.Profile{LossEveryN: 9, Reject: true}},
			},
			Partitions: []fault.Partition{
				{A: "src", B: "cons1", From: sim.Millisecond, To: 3 * sim.Millisecond}},
			Crashes: []fault.NodeCrash{{Node: "cons1", At: 5 * sim.Millisecond}},
			Slowdowns: []fault.NodeSlowdown{
				{Node: "cons0", At: 2 * sim.Millisecond, Factor: 2.5}},
		},
	}
	if got := f.Scenario(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario misbound:\n got %+v\nwant %+v", got, want)
	}
	if len(f.Assertions) != 6 || f.Assertions[2].Kind != "delivered_at_least" ||
		f.Assertions[2].N != 10 || f.Assertions[4].D != 9*sim.Second {
		t.Fatalf("assertions misparsed: %+v", f.Assertions)
	}
}

// minimal returns a valid scenario body with one line replaced, for
// error-path tests.
func minimalWith(replace, with string) string {
	base := `version: 1
name: tiny
fleet:
  copies: 1
workload:
  transport: tcp
`
	if replace == "" {
		return base + with
	}
	return strings.Replace(base, replace, with, 1)
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"tab-indent", "version: 1\n\tname: x\n", "tab in indentation"},
		{"odd-indent", "version: 1\nfleet:\n   copies: 1\n", "odd indentation"},
		{"dup-key", "version: 1\nversion: 1\n", "duplicate key"},
		{"no-space", "version:1\n", "missing space"},
		{"no-value", "version: 1\nname: x\nfleet:\n", `key "fleet" has no value`},
		{"unterminated", "version: 1\ndescription: \"open\n", "unterminated string"},
		{"bad-escape", "version: 1\ndescription: \"a\\qb\"\n", "unknown escape"},
		{"empty", "", "empty scenario file"},
		{"mixed-block", "version: 1\nfleet:\n  copies: 1\n  - x\n", "cannot mix"},
		{"json-syntax", "{\"version\": 1,}", "expected `key: value`"},
		{"json-trailing", "{\"version\": 1} {}", "expected `key: value`"},
		{"flow-mapping", "{version: 1}\n", "expected `key: value`"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name, []byte(tc.doc))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error = %v, want *ParseError", err)
			}
			if !strings.Contains(pe.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", pe.Error(), tc.want)
			}
			if pe.Line <= 0 || pe.Col <= 0 {
				t.Fatalf("error carries no position: %+v", pe)
			}
		})
	}
}

// twoCopies is a valid two-copy scenario body for the restart cases.
const twoCopies = "version: 1\nname: tiny\nfleet:\n  copies: 2\nworkload:\n  transport: tcp\n"

// semanticCases are well-formed documents describing invalid
// scenarios, each with its exact error: message and position.
var semanticCases = []struct {
	name string
	doc  string
	want string // the full Error() string
}{
	{"bad-version", minimalWith("version: 1", "version: 2"),
		`bad-version:1:1: scenario: unsupported version 2 (this build reads version 1)`},
	{"bad-name", minimalWith("name: tiny", "name: Tiny_One"),
		`bad-name:2:1: scenario: name "Tiny_One" must match [a-z0-9-]+`},
	{"unknown-key", minimalWith("", "frobnicate: 1\n"),
		`unknown-key:7:1: scenario: unknown key "frobnicate" (allowed: version, name, description, seed, fleet, workload, links, events, assertions)`},
	{"missing-fleet", "version: 1\nname: x\nworkload:\n  transport: tcp\n",
		`missing-fleet:1:1: scenario: missing required section "fleet"`},
	{"bad-transport", minimalWith("transport: tcp", "transport: rdma"),
		`bad-transport:6:3: scenario: "rdma" is not one of tcp, socketvia`},
	{"copies-range", minimalWith("copies: 1", "copies: 99"),
		`copies-range:4:3: scenario: copies 99 outside 1..64`},
	{"deadline-needs-shed", minimalWith("", "  deadline_budget: 1ms\n"),
		`deadline-needs-shed:7:3: scenario: deadline_budget requires a shedding policy (shed: block would have nowhere to put expired buffers)`},
	{"unknown-node", minimalWith("", "links:\n  - from: src\n    to: cons7\n    loss: 0.1\n"),
		`unknown-node:9:5: scenario: unknown node "cons7" (fleet has src and cons0..cons0)`},
	{"zero-profile", minimalWith("", "links:\n  - from: src\n    to: cons0\n"),
		`zero-profile:8:5: scenario: link profile conditions nothing`},
	{"prob-range", minimalWith("", "links:\n  - from: src\n    to: cons0\n    loss: 1.5\n"),
		`prob-range:10:5: scenario: loss 1.5 outside [0, 1]`},
	{"jitter-alone", minimalWith("", "links:\n  - from: src\n    to: cons0\n    jitter: 1ms\n"),
		`jitter-alone:10:5: scenario: jitter needs a latency to jitter around`},
	{"reject-alone", minimalWith("", "links:\n  - from: src\n    to: cons0\n    latency: 1ms\n    mode: reject\n"),
		`reject-alone:11:5: scenario: mode: reject needs loss or loss_every to apply to`},
	{"inverted-window", minimalWith("",
		"events:\n  - at: 5ms\n    action: partition\n    between: [src, cons0]\n    until: 2ms\n"),
		`inverted-window:11:5: scenario: partition until 2.000ms must come after at 5.000ms`},
	{"crash-src", minimalWith("", "events:\n  - at: 1ms\n    action: crash\n    node: src\n"),
		`crash-src:10:5: scenario: crashing src kills the producer; crash a consumer instead`},
	{"crash-all", minimalWith("", "events:\n  - at: 1ms\n    action: crash\n    node: cons0\n"),
		`crash-all:7:1: scenario: 1 crashes would leave no live consumer of 1 copies`},
	{"bad-action", minimalWith("", "events:\n  - at: 1ms\n    action: meteor\n"),
		`bad-action:9:5: scenario: unknown action "meteor" (want partition, crash, restart, slowdown, or condition)`},
	{"slow-factor", minimalWith("",
		"events:\n  - at: 1ms\n    action: slowdown\n    node: cons0\n    factor: 0.5\n"),
		`slow-factor:11:5: scenario: slowdown factor 0.5 must be >= 1`},
	{"bad-invariant", minimalWith("", "assertions:\n  - invariant: vibes\n"),
		`bad-invariant:8:5: scenario: unknown invariant "vibes" (want accounting, liveness, credits, replay, telemetry, or exactly-once)`},
	{"bad-assert", minimalWith("", "assertions:\n  - delivered_exactly: 3\n"),
		`bad-assert:8:5: scenario: unknown assertion "delivered_exactly"`},
	{"bad-duration", minimalWith("", "  gap: 5parsecs\n"),
		`bad-duration:7:8: scenario: "5parsecs" is not a duration (want e.g. 250us, 5ms)`},
	{"bad-int", minimalWith("", "  uows: many\n"),
		`bad-int:7:3: scenario: "many" is not an integer`},
	{"int-range", minimalWith("", "  uows: 0\n"),
		`int-range:7:3: scenario: uows 0 outside 1..64`},
	{"bad-bool", minimalWith("", "  exactly_once: yes\n"),
		`bad-bool:7:3: scenario: "yes" is not a boolean (want true or false)`},
	{"bad-float", minimalWith("", "links:\n  - from: src\n    bandwidth: fast\n"),
		`bad-float:9:5: scenario: "fast" is not a number`},
	{"neg-bandwidth", minimalWith("", "links:\n  - from: src\n    bandwidth: -5\n"),
		`neg-bandwidth:9:5: scenario: bandwidth must be positive Mbps`},
	{"bad-mode", minimalWith("", "links:\n  - from: src\n    loss: 0.1\n    mode: bounce\n"),
		`bad-mode:10:5: scenario: "bounce" is not one of drop, reject`},
	{"cond-window", minimalWith("",
		"events:\n  - at: 3ms\n    action: condition\n    until: 3ms\n    loss: 0.1\n"),
		`cond-window:10:5: scenario: condition until 3.000ms must come after at 3.000ms`},
	{"cond-zero", minimalWith("", "events:\n  - at: 3ms\n    action: condition\n    from: src\n"),
		`cond-zero:8:5: scenario: condition profile conditions nothing`},
	{"negative-count", minimalWith("", "assertions:\n  - shed_at_most: -1\n"),
		`negative-count:8:5: scenario: shed_at_most bound must be non-negative`},
	{"zero-duration", minimalWith("", "assertions:\n  - end_at_most: 0s\n"),
		`zero-duration:8:5: scenario: end_at_most needs a positive duration`},
	{"no-abort-false", minimalWith("", "assertions:\n  - no_abort: false\n"),
		`no-abort-false:8:5: scenario: no_abort takes the value true`},
	{"node-required", minimalWith("", "events:\n  - at: 1ms\n    action: crash\n    node: \"\"\n"),
		`node-required:10:5: scenario: node name required`},
	{"restart-uncovered", twoCopies + "events:\n  - at: 1ms\n    action: restart\n    node: cons0\n",
		`restart-uncovered:10:5: scenario: restart of "cons0" needs a strictly earlier crash of the same node`},
	{"all-down", twoCopies + "events:\n  - at: 1ms\n    action: crash\n    node: cons0\n" +
		"  - at: 2ms\n    action: crash\n    node: cons1\n  - at: 3ms\n    action: restart\n    node: cons0\n",
		`all-down:7:1: scenario: at 2ms every consumer copy of 2 is down; stagger the crashes or restart sooner`},
}

// TestSemanticErrors: every invalid scenario is rejected with a
// *SemanticError whose full text — file, line, column and message —
// is exactly the recorded one.
func TestSemanticErrors(t *testing.T) {
	for _, tc := range semanticCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name, []byte(tc.doc))
			var se *SemanticError
			if !errors.As(err, &se) {
				t.Fatalf("error = %v, want *SemanticError", err)
			}
			if got := se.Error(); got != tc.want {
				t.Fatalf("error\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]sim.Time{
		"0s":     0,
		"5ms":    5 * sim.Millisecond,
		"250us":  250 * sim.Microsecond,
		"1234us": 1234 * sim.Microsecond,
		"17ns":   17,
		"1.5ms":  1500 * sim.Microsecond,
		"2s":     2 * sim.Second,
	}
	for in, want := range cases {
		got, err := parseDuration(in)
		if err != nil || got != want {
			t.Fatalf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Durations that overflow sim.Time, or are not numbers at all, are
	// rejected rather than wrapped into negative times durString cannot
	// write back.
	for _, bad := range []string{"", "5", "ms", "-1ms", "5 ms", "5m", "NaNs", "Infms",
		"1e30s", "9223372037s"} {
		if _, err := parseDuration(bad); err == nil {
			t.Fatalf("parseDuration(%q) succeeded, want error", bad)
		}
	}
	// durString is the inverse on everything it emits.
	for _, d := range []sim.Time{0, 17, 250 * sim.Microsecond, 5 * sim.Millisecond,
		1500 * sim.Microsecond, 2 * sim.Second, 9223372036 * sim.Second} {
		back, err := parseDuration(durString(d))
		if err != nil || back != d {
			t.Fatalf("round trip %v -> %q -> %v, %v", d, durString(d), back, err)
		}
	}
}
