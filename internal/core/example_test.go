package core_test

import (
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// ExampleNewFabric shows the complete lifecycle of the sockets
// substrate: build a simulated testbed, attach a transport fabric, and
// exchange a message. Swapping KindSocketVIA for KindTCP changes
// nothing but the timings.
func ExampleNewFabric() {
	prof := core.CLANProfile()
	k := sim.NewKernel()
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	cl.AddNode("client", cluster.DefaultConfig())
	cl.AddNode("server", cluster.DefaultConfig())
	fab := core.NewFabric(cl, core.KindSocketVIA, prof)

	ln := fab.Endpoint("server").Listen(80)
	k.Go("server", func(p *sim.Proc) {
		conn, _ := ln.Accept(p)
		buf := make([]byte, 16)
		n, _ := conn.Recv(p, buf)
		fmt.Printf("server received %q over %s\n", buf[:n], conn.Transport())
	})
	k.Go("client", func(p *sim.Proc) {
		conn, _ := fab.Endpoint("client").Dial(p, "server", 80)
		conn.Send(p, []byte("hello"))
		conn.Close(p)
	})
	k.RunAll()
	// Output:
	// server received "hello" over socketvia
}

// Example_transports runs the same request/response exchange over
// kernel TCP and over SocketVIA on a two-node testbed; the transport
// kind is the only thing that changes between the two runs.
func Example_transports() {
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		fmt.Printf("== %s ==\n", kind)
		prof := core.CLANProfile()
		k := sim.NewKernel()
		cl := cluster.New(k, netsim.New(k, prof.Wire))
		cl.AddNode("client", cluster.DefaultConfig())
		cl.AddNode("server", cluster.DefaultConfig())
		fab := core.NewFabric(cl, kind, prof)

		ln := fab.Endpoint("server").Listen(80)
		k.Go("server", func(p *sim.Proc) {
			conn, err := ln.Accept(p)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 64)
			n, _ := conn.Recv(p, buf)
			fmt.Printf("  server got %q at t=%v\n", buf[:n], p.Now())
			conn.Send(p, []byte("hello back"))
			conn.Close(p)
		})
		k.Go("client", func(p *sim.Proc) {
			conn, err := fab.Endpoint("client").Dial(p, "server", 80)
			if err != nil {
				panic(err)
			}
			start := p.Now()
			conn.Send(p, []byte("hello"))
			buf := make([]byte, 64)
			n, _ := conn.RecvFull(p, buf[:10])
			fmt.Printf("  client got %q, round trip %v\n", buf[:n], p.Now()-start)
			conn.Close(p)
		})
		k.RunAll()
	}
	// Output:
	// == tcp ==
	//   server got "hello" at t=109.938us
	//   client got "hello back", round trip 94.915us
	// == socketvia ==
	//   server got "hello" at t=249.543us
	//   client got "hello back", round trip 19.058us
}
