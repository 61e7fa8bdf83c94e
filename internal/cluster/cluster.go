// Package cluster models the compute side of the testbed: nodes with
// a fixed number of CPUs, attached to the interconnect, with optional
// heterogeneity in processing speed.
//
// The paper's cluster is 16 dual-1GHz-PIII nodes; heterogeneity is
// emulated (as in the paper) by making some nodes process data more
// than once, i.e. by scaling computation time while communication
// costs stay constant.
package cluster

import (
	"fmt"
	"math/rand"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// Node is one machine in the cluster.
type Node struct {
	name string
	k    *sim.Kernel
	cpu  *sim.Resource
	port *netsim.Port

	// factor scales computation time (1 = nominal). The paper's
	// "factor of heterogeneity" is the ratio of the fastest to the
	// slowest node's processing speed.
	factor float64
	// slowProb makes the node slow probabilistically, per unit of
	// work: with probability slowProb a computation takes factor times
	// longer, otherwise it runs at nominal speed (Figure 11 setup).
	slowProb float64
	rng      *rand.Rand

	// failed marks a crashed node: its CPUs never finish another unit
	// of work and the fault injector discards all its traffic.
	failed bool
	// revive wakes what the current crash halted; Restart fires it.
	// One signal per crash epoch: a signal fires at most once.
	revive *sim.Signal
	// restartHooks run inside each Restart instant, in registration
	// order. They execute in kernel-callback context and must not block.
	restartHooks []func()
	restarts     int

	computeBusy sim.Time // total CPU time spent in Compute
}

// Cluster is a set of nodes sharing a kernel and a network.
type Cluster struct {
	k     *sim.Kernel
	net   *netsim.Network
	nodes map[string]*Node
	order []*Node
}

// Config describes node hardware.
type Config struct {
	// CPUsPerNode is the number of processors per node (2 in the
	// testbed's dual-PIII nodes).
	CPUsPerNode int
}

// DefaultConfig matches the paper's testbed.
func DefaultConfig() Config { return Config{CPUsPerNode: 2} }

// New returns an empty cluster.
func New(k *sim.Kernel, net *netsim.Network) *Cluster {
	return &Cluster{k: k, net: net, nodes: make(map[string]*Node)}
}

// Kernel reports the cluster's simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Network reports the cluster's interconnect.
func (c *Cluster) Network() *netsim.Network { return c.net }

// AddNode creates a node with the given name and hardware config.
func (c *Cluster) AddNode(name string, cfg Config) *Node {
	if _, ok := c.nodes[name]; ok {
		panic(fmt.Sprintf("cluster: duplicate node %q", name))
	}
	if cfg.CPUsPerNode <= 0 {
		panic("cluster: node needs at least one CPU")
	}
	n := &Node{
		name:   name,
		k:      c.k,
		cpu:    sim.NewResource(c.k, cfg.CPUsPerNode),
		port:   c.net.Attach(name),
		factor: 1,
	}
	n.cpu.SetLabel("cluster/cpu")
	c.nodes[name] = n
	c.order = append(c.order, n)
	return n
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Nodes returns all nodes in creation order.
func (c *Cluster) Nodes() []*Node { return c.order }

// Name reports the node name.
func (n *Node) Name() string { return n.name }

// Kernel reports the node's simulation kernel.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// CPU reports the node's CPU resource. Protocol stacks and application
// computation share it, as they do on real hosts.
func (n *Node) CPU() *sim.Resource { return n.cpu }

// Port reports the node's network port.
func (n *Node) Port() *netsim.Port { return n.port }

// SetSlowFactor makes every computation on the node take factor times
// its nominal duration. Communication processing is not scaled: the
// paper's heterogeneity emulation repeats only the data processing.
func (n *Node) SetSlowFactor(factor float64) {
	if factor < 1 {
		panic("cluster: slow factor below 1")
	}
	n.factor = factor
}

// SetProbabilisticSlowdown makes the node slow (by factor) with the
// given probability independently for each computation, using a
// deterministic seed.
func (n *Node) SetProbabilisticSlowdown(factor, prob float64, seed int64) {
	if factor < 1 || prob < 0 || prob > 1 {
		panic("cluster: bad probabilistic slowdown parameters")
	}
	n.factor = factor
	n.slowProb = prob
	n.rng = rand.New(rand.NewSource(seed))
}

// SlowFactor reports the configured factor.
func (n *Node) SlowFactor() float64 { return n.factor }

// Fail crashes the node at the current instant: every Compute,
// Overhead or OverheadFunc call from then on halts its proc or
// continuation until the node restarts (forever, if it never does),
// modelling a host that stops mid-instruction. Users already inside a
// CPU occupancy finish it (the discrete-event equivalent of in-flight
// work draining); they hang at their next CPU use. Frame-level
// isolation of a failed node is the fault injector's job.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.revive = sim.NewSignal(n.k)
	n.revive.SetLabel("cluster/revive")
}

// Restart revives a crashed node at the current instant: the failed
// flag clears, every proc or continuation halted at a CPU use resumes
// the use it was attempting (the OS-reboot view of a protocol stack:
// its work picks up where the host stopped), and the registered
// OnRestart hooks run in registration order. Restarting a live node is
// a no-op. A node that never restarts behaves exactly as before this
// method existed: the revive signal simply never fires.
func (n *Node) Restart() {
	if !n.failed {
		return
	}
	n.failed = false
	n.restarts++
	sig := n.revive
	n.revive = nil
	if sig != nil {
		sig.Fire(nil)
	}
	for _, fn := range n.restartHooks {
		fn()
	}
}

// OnRestart registers a hook run inside every Restart instant, after
// halted procs have been scheduled to resume. Hooks run in
// kernel-callback context: they may inspect state, fire signals,
// broadcast conds and spawn procs, but must not block.
func (n *Node) OnRestart(fn func()) { n.restartHooks = append(n.restartHooks, fn) }

// Restarts reports how many times the node has been restarted.
func (n *Node) Restarts() int { return n.restarts }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// haltIfFailed parks p while the node is crashed. Waiting on a signal
// that never fires is safe under RunAll: the kernel simply never
// resumes the proc, and the run terminates when live events drain. A
// Restart fires the signal and the proc resumes; the loop re-checks in
// case the node crashed again in the same instant.
func (n *Node) haltIfFailed(p *sim.Proc) {
	for n.failed {
		n.noteHalt(p)
		p.Wait(n.revive)
	}
}

// noteHalt reports that p (a process, or the identity of a
// continuation engine) stopped at a CPU use on the crashed node.
func (n *Node) noteHalt(p *sim.Proc) {
	hpsmon.Instant(p, "cluster", "node-halt", n.name)
}

// computeScale picks the slowdown for one unit of computation.
func (n *Node) computeScale() float64 {
	if n.rng != nil {
		if n.rng.Float64() < n.slowProb {
			return n.factor
		}
		return 1
	}
	return n.factor
}

// Compute occupies one CPU for the nominal duration scaled by the
// node's heterogeneity model. It blocks p for the scaled duration plus
// any CPU queueing.
func (n *Node) Compute(p *sim.Proc, nominal sim.Time) {
	if nominal < 0 {
		panic("cluster: negative compute time")
	}
	if nominal == 0 {
		return
	}
	n.haltIfFailed(p)
	d := sim.Time(float64(nominal)*n.computeScale() + 0.5)
	n.cpu.Use(p, 1, d)
	n.computeBusy += d
}

// Overhead occupies one CPU for exactly d, unscaled. Protocol
// processing uses this: the paper's emulation slows computation only.
// Work done on an application's thread (system calls, copies) calls it
// with that process; work done in kernel context uses OverheadFunc.
func (n *Node) Overhead(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	n.haltIfFailed(p)
	n.cpu.Use(p, 1, d)
}

// OverheadFunc is Overhead for event context (see sim.Queue): protocol
// work the kernel does in interrupt or bottom-half context occupies a
// CPU but is no thread of control, so it runs as a continuation. fn
// runs where Overhead's process would have carried on: at once for a
// non-positive d, otherwise as the event that ends the CPU hold. A
// crashed node halts the work as it halts a process, reported on ident,
// and Restart resumes it; the check repeats then, since the node may
// have crashed again within the restart instant.
func (n *Node) OverheadFunc(ident *sim.Proc, d sim.Time, fn func()) {
	switch {
	case d <= 0:
		fn()
	case n.failed:
		n.noteHalt(ident)
		n.revive.WaitFunc(func() { n.OverheadFunc(ident, d, fn) })
	default:
		n.cpu.UseFunc(1, d, fn)
	}
}

// ComputeBusy reports total (scaled) CPU time consumed via Compute.
func (n *Node) ComputeBusy() sim.Time { return n.computeBusy }
