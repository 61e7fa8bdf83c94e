// Package fault injects deterministic failures into the simulated
// fabric: probabilistic frame drop and corruption per link, network
// partition windows in virtual time, node crashes and slowdowns, and
// VIA receive-descriptor exhaustion pressure.
//
// A Plan is pure declarative data. Install compiles it into an
// Injector wired into the cluster's network and event schedule. All
// randomness flows through rand.Rand instances seeded from Plan.Seed,
// and every decision point runs in deterministic simulation order
// (the kernel is single-threaded), so the same plan over the same
// workload reproduces the same failures bit-for-bit — the property
// experiment E15 relies on and the CI determinism job checks.
//
// A zero Plan installs nothing: Install leaves the network without a
// FaultModel, so the fault-free code path is not merely "faults with
// probability zero" but the exact pre-fault-injection path, keeping
// headline figures byte-identical.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// LinkFault applies probabilistic frame damage to one directed link.
// Empty Src or Dst acts as a wildcard matching any node.
type LinkFault struct {
	Src, Dst string
	// DropProb is the per-frame probability the frame is lost.
	DropProb float64
	// CorruptProb is the per-frame probability the frame is delivered
	// damaged (checked only if the frame was not dropped).
	CorruptProb float64
}

// Partition severs all traffic between nodes A and B during the
// virtual-time window [From, To). Traffic resumes at To — a healed
// partition, the scenario the redial experiments recover from.
type Partition struct {
	A, B     string
	From, To sim.Time
}

// NodeCrash fail-stops a node at virtual time At: every frame to or
// from it is dropped from then on, and its next computation parks
// until the node restarts — forever, absent a matching NodeRestart
// (see cluster.Node.Fail).
type NodeCrash struct {
	Node string
	At   sim.Time
}

// NodeRestart revives a crashed node at virtual time At: the node
// leaves the crashed set (its frames flow again and the drop.crash
// counter stops charging it), halted procs resume, and the node's
// OnRestart hooks run — the recovery half of a crash→restart window.
// Install panics unless the plan also crashes the same node strictly
// earlier: a restart without a preceding crash is a plan bug.
type NodeRestart struct {
	Node string
	At   sim.Time
}

// NodeSlowdown scales a node's computation by Factor starting at At,
// emulating a degraded-but-alive host.
type NodeSlowdown struct {
	Node   string
	At     sim.Time
	Factor float64
}

// DescPressure makes the node's VIA provider treat an arriving data
// frame as finding no receive descriptor with probability Prob,
// triggering the receiver-not-ready path the credit protocol normally
// rules out.
type DescPressure struct {
	Node string
	Prob float64
}

// Profile is a netem-style set of link conditions: added latency with
// jitter, probabilistic and deterministic every-Nth loss (silently
// dropped or actively rejected, aerolab's two block semantics), a
// bandwidth throttle below the link rate, corruption, and reordering.
// The zero Profile conditions nothing.
type Profile struct {
	// Latency is extra one-way delay added to every matching frame.
	Latency sim.Time
	// Jitter spreads Latency uniformly over [Latency-Jitter,
	// Latency+Jitter], clamped at zero.
	Jitter sim.Time
	// LossProb is the per-frame probability the frame is lost.
	LossProb float64
	// LossEveryN, when positive, deterministically loses every N-th
	// matching frame (aerolab's every-Nth block semantics).
	LossEveryN int
	// Reject makes losses (probabilistic and every-Nth) active
	// rejections instead of silent drops: the netsim layer counts them
	// separately and traces them as RST-style bounces.
	Reject bool
	// BandwidthMbps, when positive, throttles matching frames to this
	// rate on the destination downlink.
	BandwidthMbps float64
	// CorruptProb is the per-frame probability of in-flight damage.
	CorruptProb float64
	// ReorderProb is the per-frame probability the frame bypasses FIFO
	// delivery and may overtake earlier traffic.
	ReorderProb float64
}

// Zero reports whether the profile conditions nothing.
func (p Profile) Zero() bool { return p == Profile{} }

// Lossy reports whether the profile can lose frames.
func (p Profile) Lossy() bool { return p.LossProb > 0 || p.LossEveryN > 0 }

// LinkCondition applies a Profile to one directed link during the
// virtual-time window [From, To). To == 0 means the condition holds
// for the whole run. Empty Src or Dst acts as a wildcard.
type LinkCondition struct {
	Src, Dst string
	From, To sim.Time
	Profile  Profile
}

// activeAt reports whether the condition's window covers time t.
func (lc LinkCondition) activeAt(t sim.Time) bool {
	return t >= lc.From && (lc.To == 0 || t < lc.To)
}

// Plan declares every fault to inject into one run.
type Plan struct {
	// Seed roots all probabilistic decisions. Two runs of the same
	// workload under the same plan are identical.
	Seed       int64
	Links      []LinkFault
	Conditions []LinkCondition
	Partitions []Partition
	Crashes    []NodeCrash
	Restarts   []NodeRestart
	Slowdowns  []NodeSlowdown
	Pressure   []DescPressure
}

// Zero reports whether the plan injects nothing at all.
func (pl Plan) Zero() bool {
	return len(pl.Links) == 0 && len(pl.Conditions) == 0 &&
		len(pl.Partitions) == 0 && len(pl.Crashes) == 0 &&
		len(pl.Restarts) == 0 &&
		len(pl.Slowdowns) == 0 && len(pl.Pressure) == 0
}

// Injector is a compiled Plan attached to a cluster. It implements
// netsim.ConditionedFaultModel; Install registers it with the network
// unless the plan is zero.
//
// Every probabilistic entry owns a rand.Rand seeded from the plan seed
// and the entry's own identity (its node pair and parameters), never
// its position in the plan's slices: reordering Plan.Links or
// Plan.Conditions cannot change any outcome, and each entry's stream
// advances exactly once per decision it is armed for on every frame it
// matches, whatever other entries decide.
type Injector struct {
	cl     *cluster.Cluster
	plan   Plan
	active bool
	links  []linkState
	conds  []condState
	// pressure holds a dedicated seeded stream per DescPressure entry
	// so wire faults and descriptor faults do not perturb each other's
	// random sequences.
	pressure map[string]*descPressureState

	drops    uint64
	rejects  uint64
	corrupts uint64
	// crashed and restarted count applied node-state transitions, so a
	// harness can cross-check that every scheduled crash and restart
	// actually fired (and that the crashed-node set is back in balance
	// after a crash→restart window).
	crashed   uint64
	restarted uint64
}

type linkState struct {
	fault LinkFault
	rng   *rand.Rand
}

type condState struct {
	cond LinkCondition
	rng  *rand.Rand
	// seen counts matching frames inside the window; it drives the
	// deterministic every-Nth loss.
	seen uint64
}

type descPressureState struct {
	prob float64
	rng  *rand.Rand
}

// identitySeed derives a deterministic seed from the plan seed and an
// entry's identity parts (FNV-1a over the parts, order-sensitive
// within the entry but independent of the entry's slice position).
func identitySeed(planSeed int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return planSeed ^ int64(h.Sum64())
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
func itoa(v int64) string   { return strconv.FormatInt(v, 10) }

// seed identities per entry kind. Including the parameters (not just
// the node pair) keeps two different entries on the same link on
// independent streams.
func (lf LinkFault) identity(planSeed int64) int64 {
	return identitySeed(planSeed, "link", lf.Src, lf.Dst,
		ftoa(lf.DropProb), ftoa(lf.CorruptProb))
}

func (lc LinkCondition) identity(planSeed int64) int64 {
	p := lc.Profile
	return identitySeed(planSeed, "cond", lc.Src, lc.Dst,
		itoa(int64(lc.From)), itoa(int64(lc.To)),
		itoa(int64(p.Latency)), itoa(int64(p.Jitter)),
		ftoa(p.LossProb), itoa(int64(p.LossEveryN)),
		strconv.FormatBool(p.Reject), ftoa(p.BandwidthMbps),
		ftoa(p.CorruptProb), ftoa(p.ReorderProb))
}

func (dp DescPressure) identity(planSeed int64) int64 {
	return identitySeed(planSeed, "pressure", dp.Node, ftoa(dp.Prob))
}

// Install compiles the plan against the cluster: it registers the
// injector as the network's fault model, schedules crashes and
// slowdowns at their virtual times, and prepares descriptor-pressure
// hooks (armed per endpoint via ArmDescPressure). A zero plan leaves
// the cluster completely untouched.
func Install(cl *cluster.Cluster, plan Plan) *Injector {
	inj := &Injector{cl: cl, plan: plan}
	if plan.Zero() {
		return inj
	}
	k := cl.Kernel()
	inj.active = true
	for _, lf := range plan.Links {
		inj.links = append(inj.links, linkState{
			fault: lf,
			rng:   rand.New(rand.NewSource(lf.identity(plan.Seed))),
		})
	}
	for _, lc := range plan.Conditions {
		inj.conds = append(inj.conds, condState{
			cond: lc,
			rng:  rand.New(rand.NewSource(lc.identity(plan.Seed))),
		})
	}
	inj.pressure = make(map[string]*descPressureState)
	for _, dp := range plan.Pressure {
		inj.pressure[dp.Node] = &descPressureState{
			prob: dp.Prob,
			rng:  rand.New(rand.NewSource(dp.identity(plan.Seed))),
		}
	}
	cl.Network().SetFaultModel(inj)
	for _, cr := range plan.Crashes {
		node := cl.Node(cr.Node)
		if node == nil {
			panic(fmt.Sprintf("fault: crash names unknown node %q", cr.Node))
		}
		k.At(cr.At, func() {
			hpsmon.InstantK(k, "fault", "node-crash", node.Name())
			inj.crashed++
			node.Fail()
		})
	}
	for _, rs := range plan.Restarts {
		node := cl.Node(rs.Node)
		if node == nil {
			panic(fmt.Sprintf("fault: restart names unknown node %q", rs.Node))
		}
		covered := false
		for _, cr := range plan.Crashes {
			if cr.Node == rs.Node && cr.At < rs.At {
				covered = true
			}
		}
		if !covered {
			panic(fmt.Sprintf("fault: restart of %q at %v has no strictly earlier crash", rs.Node, rs.At))
		}
		k.At(rs.At, func() {
			hpsmon.InstantK(k, "fault", "node-restart", node.Name())
			inj.restarted++
			node.Restart()
		})
	}
	for _, sl := range plan.Slowdowns {
		node := cl.Node(sl.Node)
		if node == nil {
			panic(fmt.Sprintf("fault: slowdown names unknown node %q", sl.Node))
		}
		factor := sl.Factor
		k.At(sl.At, func() {
			hpsmon.InstantK(k, "fault", "node-slowdown", node.Name())
			node.SetSlowFactor(factor)
		})
	}
	return inj
}

// Active reports whether the injector was compiled from a non-zero
// plan.
func (in *Injector) Active() bool { return in.active }

// Drops reports how many frames the injector dropped (wire loss,
// partitions, rejections, and crashed-node traffic combined).
func (in *Injector) Drops() uint64 { return in.drops }

// Rejects reports how many of the dropped frames were active
// rejections from a Reject-mode condition.
func (in *Injector) Rejects() uint64 { return in.rejects }

// Corrupts reports how many frames the injector damaged in flight.
func (in *Injector) Corrupts() uint64 { return in.corrupts }

// CrashesApplied reports how many scheduled node crashes have fired.
func (in *Injector) CrashesApplied() uint64 { return in.crashed }

// RestartsApplied reports how many scheduled node restarts have fired.
func (in *Injector) RestartsApplied() uint64 { return in.restarted }

// DownNow reports how many cluster nodes are currently in the crashed
// set — zero again once every crash has been matched by a restart.
func (in *Injector) DownNow() int {
	n := 0
	for _, node := range in.cl.Nodes() {
		if node.Failed() {
			n++
		}
	}
	return n
}

// Judge implements netsim.FaultModel by discarding the conditioning
// half of the verdict.
func (in *Injector) Judge(now sim.Time, f *netsim.Frame) netsim.Disposition {
	return in.JudgeConditioned(now, f).Disposition
}

// JudgeConditioned implements netsim.ConditionedFaultModel.
// Precedence: crashed endpoints silence the frame, then partition
// windows, then per-entry probabilistic loss, rejection, and
// corruption combined across every matching link fault and condition.
//
// Every armed probability of every matching entry draws exactly once
// per frame, whatever earlier entries decided; the verdict is then
// combined with fixed precedence (silent drop over reject over
// corrupt). Decisions therefore do not depend on entry order.
func (in *Injector) JudgeConditioned(now sim.Time, f *netsim.Frame) netsim.Verdict {
	k := in.cl.Kernel()
	if in.nodeFailed(f.Src) || in.nodeFailed(f.Dst) {
		in.drops++
		hpsmon.Count(k, "fault", "drop.crash", 1)
		return netsim.Verdict{Disposition: netsim.Drop}
	}
	for _, pt := range in.plan.Partitions {
		if now >= pt.From && now < pt.To && betweenPair(f, pt.A, pt.B) {
			in.drops++
			hpsmon.Count(k, "fault", "drop.partition", 1)
			return netsim.Verdict{Disposition: netsim.Drop}
		}
	}
	var drop, reject, corrupt bool
	var cond netsim.Condition
	for i := range in.links {
		ls := &in.links[i]
		if !matchLink(f, ls.fault) {
			continue
		}
		if ls.fault.DropProb > 0 && ls.rng.Float64() < ls.fault.DropProb {
			drop = true
		}
		if ls.fault.CorruptProb > 0 && ls.rng.Float64() < ls.fault.CorruptProb {
			corrupt = true
		}
	}
	for i := range in.conds {
		cs := &in.conds[i]
		if !matchCond(f, cs.cond) || !cs.cond.activeAt(now) {
			continue
		}
		cs.seen++
		p := cs.cond.Profile
		lost := false
		if p.LossProb > 0 && cs.rng.Float64() < p.LossProb {
			lost = true
		}
		if p.LossEveryN > 0 && cs.seen%uint64(p.LossEveryN) == 0 {
			lost = true
		}
		if lost {
			if p.Reject {
				reject = true
			} else {
				drop = true
			}
		}
		if p.CorruptProb > 0 && cs.rng.Float64() < p.CorruptProb {
			corrupt = true
		}
		if p.ReorderProb > 0 && cs.rng.Float64() < p.ReorderProb {
			cond.Reorder = true
		}
		delay := p.Latency
		if p.Jitter > 0 {
			delay += sim.Time(cs.rng.Int63n(int64(2*p.Jitter)+1)) - p.Jitter
			if delay < 0 {
				delay = 0
			}
		}
		cond.Delay += delay
		if p.BandwidthMbps > 0 &&
			(cond.RateMbps == 0 || p.BandwidthMbps < cond.RateMbps) {
			cond.RateMbps = p.BandwidthMbps
		}
	}
	switch {
	case drop:
		in.drops++
		hpsmon.Count(k, "fault", "drop.link", 1)
		return netsim.Verdict{Disposition: netsim.Drop}
	case reject:
		in.drops++
		in.rejects++
		hpsmon.Count(k, "fault", "drop.reject", 1)
		return netsim.Verdict{Disposition: netsim.Reject}
	case corrupt:
		in.corrupts++
		hpsmon.Count(k, "fault", "corrupt.link", 1)
		return netsim.Verdict{Disposition: netsim.Corrupt, Cond: cond}
	}
	return netsim.Verdict{Cond: cond}
}

func (in *Injector) nodeFailed(name string) bool {
	node := in.cl.Node(name)
	return node != nil && node.Failed()
}

func betweenPair(f *netsim.Frame, a, b string) bool {
	return (f.Src == a && f.Dst == b) || (f.Src == b && f.Dst == a)
}

func matchLink(f *netsim.Frame, lf LinkFault) bool {
	return (lf.Src == "" || lf.Src == f.Src) &&
		(lf.Dst == "" || lf.Dst == f.Dst)
}

func matchCond(f *netsim.Frame, lc LinkCondition) bool {
	return (lc.Src == "" || lc.Src == f.Src) &&
		(lc.Dst == "" || lc.Dst == f.Dst)
}

// DescPressureFor returns the descriptor-exhaustion hook for the named
// node, or nil when the plan applies no pressure there. The hook is
// what via.Provider.SetDescPressure expects: it reports, per arriving
// data frame, whether the receive pool should be treated as dry.
func (in *Injector) DescPressureFor(node string) func() bool {
	st, ok := in.pressure[node]
	if !ok {
		return nil
	}
	return func() bool { return st.rng.Float64() < st.prob }
}

// descPressureArmer is the endpoint capability required to inject
// descriptor pressure; core's SocketVIA endpoint implements it, the
// kernel-path endpoint does not (descriptor exhaustion is a VIA-only
// failure mode).
type descPressureArmer interface {
	SetDescPressure(fn func() bool)
}

// ArmDescPressure wires the plan's descriptor pressure into every
// endpoint that supports it. ep is typically core.Fabric.Endpoint for
// each node; pass endpoints in cluster order for reproducibility
// (iterate cl.Nodes(), not a map).
func (in *Injector) ArmDescPressure(node string, ep any) {
	fn := in.DescPressureFor(node)
	if fn == nil {
		return
	}
	if armer, ok := ep.(descPressureArmer); ok {
		armer.SetDescPressure(fn)
	}
}
