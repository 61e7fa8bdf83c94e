package scenario

import (
	"errors"
	"strings"
	"testing"

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

func TestParseHappyYAML(t *testing.T) {
	f, err := Parse("full.yaml", []byte(happyYAML))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "full-house" || f.Seed != 7 || f.Fleet.Copies != 2 {
		t.Fatalf("header misparsed: %+v", f)
	}
	if want := "uses \"every\" construct\n(two lines)"; f.Description != want {
		t.Fatalf("description = %q, want %q", f.Description, want)
	}
	w := f.Workload
	if w.Transport != "socketvia" || w.Policy != "dd" || w.Shed != "drop-oldest" {
		t.Fatalf("workload enums misparsed: %+v", w)
	}
	if w.DeadlineBudget != 8*sim.Millisecond || w.Gap != 50*sim.Microsecond {
		t.Fatalf("workload durations misparsed: %+v", w)
	}
	if len(f.Links) != 1 || f.Links[0].Profile.LossProb != 0.01 ||
		f.Links[0].Profile.Latency != 250*sim.Microsecond {
		t.Fatalf("links misparsed: %+v", f.Links)
	}
	if len(f.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(f.Events))
	}
	if e := f.Events[0]; e.Action != "partition" || e.A != "src" || e.B != "cons1" ||
		e.At != sim.Millisecond || e.Until != 3*sim.Millisecond {
		t.Fatalf("partition misparsed: %+v", e)
	}
	if e := f.Events[2]; e.Action != "condition" || !e.Profile.Reject ||
		e.Profile.LossEveryN != 9 {
		t.Fatalf("condition misparsed: %+v", e)
	}
	if len(f.Assertions) != 6 || f.Assertions[2].Kind != AssertDeliveredMin ||
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

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad-version", minimalWith("version: 1", "version: 2"), "unsupported version 2"},
		{"bad-name", minimalWith("name: tiny", "name: Tiny_One"), "must match"},
		{"unknown-key", minimalWith("", "frobnicate: 1\n"), `unknown key "frobnicate"`},
		{"missing-fleet", "version: 1\nname: x\nworkload:\n  transport: tcp\n",
			`missing required section "fleet"`},
		{"bad-transport", minimalWith("transport: tcp", "transport: rdma"), "not one of tcp, socketvia"},
		{"copies-range", minimalWith("copies: 1", "copies: 99"), "outside 1..64"},
		{"deadline-needs-shed", minimalWith("", "  deadline_budget: 1ms\n"),
			"requires a shedding policy"},
		{"unknown-node", minimalWith("", "links:\n  - from: src\n    to: cons7\n    loss: 0.1\n"),
			`unknown node "cons7"`},
		{"zero-profile", minimalWith("", "links:\n  - from: src\n    to: cons0\n"),
			"conditions nothing"},
		{"prob-range", minimalWith("", "links:\n  - from: src\n    to: cons0\n    loss: 1.5\n"),
			"outside [0, 1]"},
		{"jitter-alone", minimalWith("", "links:\n  - from: src\n    to: cons0\n    jitter: 1ms\n"),
			"jitter needs a latency"},
		{"reject-alone", minimalWith("", "links:\n  - from: src\n    to: cons0\n    latency: 1ms\n    mode: reject\n"),
			"needs loss"},
		{"inverted-window", minimalWith("",
			"events:\n  - at: 5ms\n    action: partition\n    between: [src, cons0]\n    until: 2ms\n"),
			"must come after"},
		{"crash-src", minimalWith("", "events:\n  - at: 1ms\n    action: crash\n    node: src\n"),
			"crashing src"},
		{"crash-all", minimalWith("", "events:\n  - at: 1ms\n    action: crash\n    node: cons0\n"),
			"no live consumer"},
		{"bad-action", minimalWith("", "events:\n  - at: 1ms\n    action: meteor\n"),
			`unknown action "meteor"`},
		{"slow-factor", minimalWith("",
			"events:\n  - at: 1ms\n    action: slowdown\n    node: cons0\n    factor: 0.5\n"),
			"must be >= 1"},
		{"bad-invariant", minimalWith("", "assertions:\n  - invariant: vibes\n"),
			`unknown invariant "vibes"`},
		{"bad-assert", minimalWith("", "assertions:\n  - delivered_exactly: 3\n"),
			`unknown assertion "delivered_exactly"`},
		{"bad-duration", minimalWith("", "  gap: 5parsecs\n"), "is not a duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name, []byte(tc.doc))
			var se *SemanticError
			if !errors.As(err, &se) {
				t.Fatalf("error = %v, want *SemanticError", err)
			}
			if !strings.Contains(se.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", se.Error(), tc.want)
			}
			if se.Line <= 0 || se.Col <= 0 {
				t.Fatalf("error carries no position: %+v", se)
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
	for _, bad := range []string{"", "5", "ms", "-1ms", "5 ms", "5m"} {
		if _, err := parseDuration(bad); err == nil {
			t.Fatalf("parseDuration(%q) succeeded, want error", bad)
		}
	}
	// durString is the inverse on everything it emits.
	for _, d := range []sim.Time{0, 17, 250 * sim.Microsecond, 5 * sim.Millisecond,
		1500 * sim.Microsecond, 2 * sim.Second} {
		back, err := parseDuration(durString(d))
		if err != nil || back != d {
			t.Fatalf("round trip %v -> %q -> %v, %v", d, durString(d), back, err)
		}
	}
}
