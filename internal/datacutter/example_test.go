package datacutter_test

import (
	"fmt"
	"strings"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// doubler multiplies each incoming value by two.
type doubler struct{}

func (doubler) Init(*datacutter.Context) error { return nil }
func (doubler) Process(ctx *datacutter.Context) error {
	in, out := ctx.Input("nums"), ctx.Output("doubled")
	for {
		b, ok := in.Read(ctx.Proc())
		if !ok {
			return out.EndOfWork(ctx.Proc())
		}
		if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: b.Size, Tag: b.Tag * 2}); err != nil {
			return err
		}
	}
}
func (doubler) Finalize(*datacutter.Context) error { return nil }

// ExampleRuntime_Instantiate builds a three-filter group — source,
// doubler, sink — over SocketVIA and runs one unit of work.
func ExampleRuntime_Instantiate() {
	prof := core.CLANProfile()
	k := sim.NewKernel()
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	for _, name := range []string{"n0", "n1", "n2"} {
		cl.AddNode(name, cluster.DefaultConfig())
	}
	rt := datacutter.NewRuntime(cl, core.NewFabric(cl, core.KindSocketVIA, prof))

	src := func(int) datacutter.Filter {
		return filterFunc(func(ctx *datacutter.Context) error {
			out := ctx.Output("nums")
			for i := int64(1); i <= 3; i++ {
				if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: 8, Tag: i}); err != nil {
					return err
				}
			}
			return out.EndOfWork(ctx.Proc())
		})
	}
	var got []int64
	sink := func(int) datacutter.Filter {
		return filterFunc(func(ctx *datacutter.Context) error {
			in := ctx.Input("doubled")
			for {
				b, ok := in.Read(ctx.Proc())
				if !ok {
					return nil
				}
				got = append(got, b.Tag)
			}
		})
	}

	g := rt.Instantiate(datacutter.GroupSpec{
		Filters: []datacutter.FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "double", New: func(int) datacutter.Filter { return doubler{} }, Placement: []string{"n1"}},
			{Name: "sink", New: sink, Placement: []string{"n2"}},
		},
		Streams: []datacutter.StreamSpec{
			{Name: "nums", From: "src", To: "double"},
			{Name: "doubled", From: "double", To: "sink"},
		},
	})
	g.Start(1)
	k.RunAll()
	fmt.Println(got)
	// Output:
	// [2 4 6]
}

// ExampleRuntime_Instantiate_transparentCopies runs a three-stage
// text pipeline carrying real payload bytes: a reader splits a
// document into lines, two transparent copies of a tokenizer uppercase
// them under demand-driven scheduling (data parallelism), and a
// collector reassembles the result in arrival order.
func ExampleRuntime_Instantiate_transparentCopies() {
	const document = `the challenging issues in supporting data intensive applications
include efficient movement of large volumes of data
and efficient coordination of data movement and processing
to achieve high performance with guarantees
and adaptability to heterogeneous environments`

	prof := core.CLANProfile()
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.New(k, prof.Wire))
	for _, n := range []string{"src", "w0", "w1", "dst"} {
		cl.AddNode(n, cluster.DefaultConfig())
	}
	rt := datacutter.NewRuntime(cl, core.NewFabric(cl, core.KindSocketVIA, prof))

	reader := filterFunc(func(ctx *datacutter.Context) error {
		out := ctx.Output("lines")
		for i, line := range strings.Split(document, "\n") {
			buf := &datacutter.Buffer{Size: len(line), Data: []byte(line), Tag: int64(i)}
			if err := out.Write(ctx.Proc(), buf); err != nil {
				return err
			}
		}
		return out.EndOfWork(ctx.Proc())
	})
	tokenizer := filterFunc(func(ctx *datacutter.Context) error {
		in, out := ctx.Input("lines"), ctx.Output("tokens")
		for {
			b, ok := in.Read(ctx.Proc())
			if !ok {
				return out.EndOfWork(ctx.Proc())
			}
			ctx.Compute(sim.Time(b.Size) * 50) // 50 ns/byte of "parsing"
			up := []byte(strings.ToUpper(string(b.Data)))
			if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: len(up), Data: up, Tag: b.Tag}); err != nil {
				return err
			}
		}
	})
	got := map[int64]string{}
	collector := filterFunc(func(ctx *datacutter.Context) error {
		in := ctx.Input("tokens")
		for {
			b, ok := in.Read(ctx.Proc())
			if !ok {
				return nil
			}
			got[b.Tag] = string(b.Data)
		}
	})

	g := rt.Instantiate(datacutter.GroupSpec{
		Filters: []datacutter.FilterSpec{
			{Name: "reader", New: func(int) datacutter.Filter { return reader }, Placement: []string{"src"}},
			{Name: "tokenizer", New: func(int) datacutter.Filter { return tokenizer }, Placement: []string{"w0", "w1"}},
			{Name: "collector", New: func(int) datacutter.Filter { return collector }, Placement: []string{"dst"}},
		},
		Streams: []datacutter.StreamSpec{
			{Name: "lines", From: "reader", To: "tokenizer", Policy: datacutter.DemandDriven},
			{Name: "tokens", From: "tokenizer", To: "collector"},
		},
	})
	g.Start(1)
	end := k.RunAll()
	if err := g.Err(); err != nil {
		panic(err)
	}

	fmt.Printf("processed %d lines across 2 tokenizer copies in %v (virtual):\n\n", len(got), end)
	for i := 0; i < len(got); i++ {
		fmt.Println(got[int64(i)])
	}
	// Output:
	// processed 5 lines across 2 tokenizer copies in 429.630us (virtual):
	//
	// THE CHALLENGING ISSUES IN SUPPORTING DATA INTENSIVE APPLICATIONS
	// INCLUDE EFFICIENT MOVEMENT OF LARGE VOLUMES OF DATA
	// AND EFFICIENT COORDINATION OF DATA MOVEMENT AND PROCESSING
	// TO ACHIEVE HIGH PERFORMANCE WITH GUARANTEES
	// AND ADAPTABILITY TO HETEROGENEOUS ENVIRONMENTS
}

// filterFunc adapts a process function to the Filter interface.
type filterFunc func(ctx *datacutter.Context) error

func (filterFunc) Init(*datacutter.Context) error          { return nil }
func (f filterFunc) Process(ctx *datacutter.Context) error { return f(ctx) }
func (filterFunc) Finalize(*datacutter.Context) error      { return nil }
