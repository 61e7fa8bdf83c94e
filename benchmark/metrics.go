package main

// metricDef declares one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions; the smoke test holds the
// two in step.
type metricDef struct {
	name, unit, better string
	// exact marks a per-layer metric that is a count or a virtual-time
	// value: it repeats exactly run to run and compares exactly between
	// two commits. Everything else is host time and carries the
	// machine's noise.
	exact bool
}

// endToEnd are the metrics a user of the simulator pays or sees,
// printed by a --trace 0 run of every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "msgs_per_host_s", unit: "1/s", better: "higher"},
	{name: "allocs_per_msg", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_msg", unit: "B", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "par_speedup", unit: "x", better: "higher"},
	{name: "paper_err_pct", unit: "%", better: "lower"},
}

// ladderRungs are the rungs whose marginal cost the ladder reports,
// each minus the rung below it, under the names "ladder.<rung>.*".
var ladderRungs = []struct{ name, below string }{
	{"netsim", "sim"},
	{"ktcp", "netsim"},
	{"via", "netsim"},
	{"core.tcp", "ktcp"},
	{"core.sv", "via"},
	{"datacutter.tcp", "core.tcp"},
	{"datacutter.sv", "core.sv"},
	{"vizapp.tcp", "datacutter.tcp"},
	{"vizapp.sv", "datacutter.sv"},
}

// perLayer are the metrics of single layers, printed by a --trace 1
// run. A metric a workload cannot measure reads 0 there; README.md
// says which workload measures what.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	host := func(name, unit, better string) metricDef { return metricDef{name: name, unit: unit, better: better} }
	exact := func(name, unit, better string) metricDef {
		return metricDef{name: name, unit: unit, better: better, exact: true}
	}
	defs := []metricDef{
		// The kernel alone: ladder rungs 0-1 and the fixed anchor.
		host("sim.host_ns_per_event", "ns", "lower"),
		host("sim.host_ns_per_park", "ns", "lower"),
		host("sim.anchor_mevents_per_s", "M/s", "higher"),
		// Kernel work per message in the traced rep.
		exact("sim.events_per_msg", "count", "lower"),
		exact("sim.parks_per_msg", "count", "lower"),
		exact("sim.ring_hit_share", "share", "higher"),
		exact("sim.handoff_share", "share", "higher"),
		exact("sim.procs_spawned", "count", "lower"),
	}
	// Park-ledger edges grouped by the layer that labelled them: work
	// done as a count, and the virtual time work waited there.
	for _, l := range layers {
		defs = append(defs, exact(l.metricStem+"parks_per_msg", "count", "lower"), exact(l.metricStem+"parked_us_per_msg", "us", "lower"))
	}
	// The stack ladder: marginal fixed cost at 2 KB and per-KB slope.
	for _, r := range ladderRungs {
		defs = append(defs,
			host("ladder."+r.name+".host_ns_per_msg", "ns", "lower"),
			exact("ladder."+r.name+".events_per_msg", "count", "lower"),
			exact("ladder."+r.name+".parks_per_msg", "count", "lower"),
			host("ladder."+r.name+".allocs_per_msg", "count", "lower"),
			host("ladder."+r.name+".host_ns_per_kb", "ns/KB", "lower"),
		)
	}
	defs = append(defs,
		// Wire accounting that explains the per-KB slopes.
		exact("netsim.frames_per_msg", "count", "lower"),
		exact("netsim.wire_bytes_per_payload_byte", "B/B", "lower"),
		exact("ktcp.segments_per_msg", "count", "lower"),
		// Simulated results: a host-only optimisation must not move them.
		exact("cluster.cpu_util_max", "share", "lower"),
		exact("vizapp.sim_updates_per_s", "1/s", "higher"),
		exact("vizapp.sim_resp_us_p50", "us", "lower"),
		exact("core.sim_latency_us", "us", "lower"),
		exact("core.sim_mbps", "Mbps", "higher"),
	)
	// The virtual-time twin: why 9.5 us against 47 us.
	for _, c := range critComponents {
		defs = append(defs, exact(c+".crit_us_per_uow", "us", "lower"))
	}
	defs = append(defs,
		// Off-fast-path traffic (chaos-sweep).
		exact("netsim.dropped", "count", "lower"),
		exact("core.redials", "count", "lower"),
		exact("datacutter.redispatched", "count", "lower"),
		exact("datacutter.shed", "count", "lower"),
		exact("datacutter.dup_suppressed", "count", "lower"),
		exact("datacutter.restarts", "count", "lower"),
		exact("chaos.violations", "count", "lower"),
		host("chaos.host_ms_per_seed", "ms", "lower"),
		host("scenario.host_ms_per_file", "ms", "lower"),
		// The parallel runner.
		host("runner.par_efficiency", "share", "higher"),
		exact("runner.cells", "count", "higher"),
		host("runner.host_s_w1", "s", "lower"),
		host("runner.host_s_wn", "s", "lower"),
		// How the ladder reads for this workload's message size.
		exact("workload.msgs_per_mb", "1/MB", "lower"),
		host("via.perkb_host_share", "share", "lower"),
		// Context for every other number.
		host("runtime.gc_cycles", "count", "lower"),
		host("runtime.gc_pause_ms", "ms", "lower"),
		host("runtime.calib_ns", "ns", "lower"),
		host("trace.overhead_pct", "%", "lower"),
		exact("experiments.sim_digest_drift", "count", "lower"),
	)
	return defs
}
