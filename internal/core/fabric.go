package core

import (
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/ktcp"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
	"hpsockets/internal/via"
)

// Kind selects a transport implementation.
type Kind int

const (
	// KindTCP is the kernel-based sockets path.
	KindTCP Kind = iota
	// KindSocketVIA is the user-level sockets layer over VIA.
	KindSocketVIA
)

func (k Kind) String() string {
	switch k {
	case KindTCP:
		return "tcp"
	case KindSocketVIA:
		return "socketvia"
	}
	return "unknown"
}

// Profile bundles the per-layer configuration of the testbed: the
// parameters callers vary. Each layer's cost model is constants.
type Profile struct {
	Wire netsim.Config
	TCP  ktcp.Config
	VIA  via.Config
	SV   SVConfig
}

// CLANProfile returns the full testbed calibration: the cLAN switch
// fabric, the Linux 2.2 kernel TCP path, the cLAN VIA adapter and the
// SocketVIA layer.
func CLANProfile() Profile {
	return Profile{
		Wire: netsim.CLANConfig(),
		TCP:  ktcp.LinuxCLANConfig(),
		VIA:  via.CLANConfig(),
		SV:   DefaultSVConfig(),
	}
}

// RecoveryProfile is CLANProfile with the recovery machinery armed:
// kernel-path retransmission, a VIA connect timeout, and a SocketVIA
// dial timeout. Fault experiments and the fault-conformance suite use
// it; CLANProfile leaves every knob at zero, so headline figures run
// the exact fault-free code path.
func RecoveryProfile() Profile {
	prof := CLANProfile()
	prof.TCP.RTO = 5 * sim.Millisecond
	prof.TCP.MaxRetries = 8
	prof.VIA.ConnTimeout = 10 * sim.Millisecond
	prof.SV.DialTimeout = 20 * sim.Millisecond
	return prof
}

// Fabric instantiates one transport endpoint on every node of a
// cluster, the way the experiment harnesses bring up the testbed.
type Fabric struct {
	kind Kind
	eps  map[string]Endpoint
}

// NewFabric creates endpoints of the given kind on all current nodes.
func NewFabric(cl *cluster.Cluster, kind Kind, prof Profile) *Fabric {
	f := &Fabric{kind: kind, eps: make(map[string]Endpoint)}
	for _, node := range cl.Nodes() {
		switch kind {
		case KindTCP:
			f.eps[node.Name()] = NewTCPEndpoint(node, cl.Network(), prof.TCP)
		case KindSocketVIA:
			f.eps[node.Name()] = NewSocketVIAEndpoint(node, cl.Network(), prof.VIA, prof.SV)
		default:
			panic(fmt.Sprintf("core: unknown transport kind %d", kind))
		}
	}
	return f
}

// Kind reports the fabric's transport kind.
func (f *Fabric) Kind() Kind { return f.kind }

// Endpoint returns the endpoint on the named node.
func (f *Fabric) Endpoint(node string) Endpoint {
	ep, ok := f.eps[node]
	if !ok {
		panic(fmt.Sprintf("core: no endpoint on node %q", node))
	}
	return ep
}
