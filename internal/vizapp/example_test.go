package vizapp_test

import (
	"fmt"

	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/experiments"
	"hpsockets/internal/sim"
	"hpsockets/internal/vizapp"
)

// ExampleRunPipeline runs an interactive digitized-microscopy session
// against the Figure 5 visualization-server pipeline, the paper's
// motivating application. A pathologist opens a slide (complete
// update), pans around it (partial updates) and zooms in (zoom query),
// first over kernel TCP with the coarse partitioning TCP's bandwidth
// profile requires, then over SocketVIA, and finally over SocketVIA
// with the dataset repartitioned into fine chunks (the paper's "DR").
func ExampleRunPipeline() {
	// The paper's digitized slide: 16 MB per viewed image, 18 ns/byte
	// of processing in the visualization chain.
	session := []struct {
		action string
		query  func(cfg vizapp.PipelineConfig) vizapp.Query
	}{
		{"open slide (complete update)", func(cfg vizapp.PipelineConfig) vizapp.Query { return cfg.CompleteQuery() }},
		{"pan right (partial update)", func(vizapp.PipelineConfig) vizapp.Query { return vizapp.PartialQuery() }},
		{"pan down (partial update)", func(vizapp.PipelineConfig) vizapp.Query { return vizapp.PartialQuery() }},
		{"zoom 4x (zoom query)", func(cfg vizapp.PipelineConfig) vizapp.Query { return cfg.ZoomQuery(4) }},
		{"new slide (complete update)", func(cfg vizapp.PipelineConfig) vizapp.Query { return cfg.CompleteQuery() }},
	}
	configs := []struct {
		label string
		kind  core.Kind
		block int
	}{
		{"TCP, 64 KB blocks (bandwidth-oriented partitioning)", core.KindTCP, 64 * 1024},
		{"SocketVIA, 64 KB blocks (no repartitioning)", core.KindSocketVIA, 64 * 1024},
		{"SocketVIA, 2 KB blocks (repartitioned for SocketVIA)", core.KindSocketVIA, 2 * 1024},
	}

	for _, c := range configs {
		cfg := vizapp.DefaultPipelineConfig(c.kind, c.block)
		cfg.ComputePerByte = 18 * sim.Nanosecond
		cfg.Sequential = true // an interactive user issues one query at a time

		queries := make([]vizapp.Query, len(session))
		for i, s := range session {
			queries[i] = s.query(cfg)
		}
		res := vizapp.RunPipeline(cfg, queries)
		if res.Err != nil {
			panic(res.Err)
		}
		fmt.Printf("== %s ==\n", c.label)
		for i, rt := range res.ResponseTimes() {
			fmt.Printf("  %-32s %10v\n", session[i].action, rt)
		}
		fmt.Println()
	}
	// Output:
	// == TCP, 64 KB blocks (bandwidth-oriented partitioning) ==
	//   open slide (complete update)      435.056ms
	//   pan right (partial update)          7.608ms
	//   pan down (partial update)           7.608ms
	//   zoom 4x (zoom query)               13.114ms
	//   new slide (complete update)       433.395ms
	//
	// == SocketVIA, 64 KB blocks (no repartitioning) ==
	//   open slide (complete update)      308.433ms
	//   pan right (partial update)          5.783ms
	//   pan down (partial update)           5.786ms
	//   zoom 4x (zoom query)               10.520ms
	//   new slide (complete update)       308.433ms
	//
	// == SocketVIA, 2 KB blocks (repartitioned for SocketVIA) ==
	//   open slide (complete update)      302.310ms
	//   pan right (partial update)        326.094us
	//   pan down (partial update)         329.694us
	//   zoom 4x (zoom query)              437.186us
	//   new slide (complete update)       302.291ms
}

// ExampleRunSession serves a pathologist's session over a 4096x4096
// slide stored as a grid of blocks, with the Figure 1 geometry made
// explicit. Every viewport move fetches whole blocks, including pixels
// outside the viewport (the paper's "unnecessary data"). The session
// runs with coarse blocks (what TCP's bandwidth profile wants) and
// fine blocks (what SocketVIA affords), printing the per-action
// response time and the wasted bytes.
func ExampleRunSession() {
	script := []vizapp.Interaction{
		vizapp.Open(),
		vizapp.Zoom(4),
		vizapp.Pan(256, 0),
		vizapp.Pan(0, 256),
		vizapp.Pan(-128, -128),
		vizapp.Zoom(2),
	}
	configs := []struct {
		label   string
		kind    core.Kind
		blockPx int
	}{
		{"TCP, 2048px blocks (4 MB chunks)", core.KindTCP, 2048},
		{"SocketVIA, 2048px blocks (4 MB chunks)", core.KindSocketVIA, 2048},
		{"SocketVIA, 256px blocks (64 KB chunks, repartitioned)", core.KindSocketVIA, 256},
	}

	for _, c := range configs {
		ds := vizapp.NewDataset(4096, 4096, 1, c.blockPx, c.blockPx)
		cfg := vizapp.DefaultPipelineConfig(c.kind, 0)
		cfg.ComputePerByte = 18 * sim.Nanosecond
		res := vizapp.RunSession(cfg, ds, script)
		if res.Err != nil {
			panic(res.Err)
		}
		fmt.Printf("== %s (%d blocks on the slide) ==\n", c.label, ds.Blocks())
		fmt.Printf("   %-16s %8s %12s %12s %14s\n", "action", "blocks", "fetched", "wasted", "response")
		for _, st := range res.Steps {
			fmt.Printf("   %-16s %8d %10.2fMB %10.2fMB %14v\n",
				st.Op.Describe(), st.Blocks,
				float64(st.Fetched)/(1<<20), float64(st.Wasted)/(1<<20), st.Response)
		}
		fmt.Println()
	}
	// Output:
	// == TCP, 2048px blocks (4 MB chunks) (4 blocks on the slide) ==
	//    action             blocks      fetched       wasted       response
	//    open slide              4      16.00MB       0.00MB      784.805ms
	//    zoom 4x                 4      16.00MB      15.00MB      788.426ms
	//    pan (+256,+0)           2       8.00MB       7.75MB      569.765ms
	//    pan (+0,+256)           2       8.00MB       7.75MB      569.765ms
	//    pan (-128,-128)         3      12.00MB      15.75MB      712.203ms
	//    zoom 2x                 4      16.00MB      15.75MB      796.202ms
	//
	// == SocketVIA, 2048px blocks (4 MB chunks) (4 blocks on the slide) ==
	//    action             blocks      fetched       wasted       response
	//    open slide              4      16.00MB       0.00MB      660.933ms
	//    zoom 4x                 4      16.00MB      15.00MB      660.850ms
	//    pan (+256,+0)           2       8.00MB       7.75MB      473.473ms
	//    pan (+0,+256)           2       8.00MB       7.75MB      473.473ms
	//    pan (-128,-128)         3      12.00MB      15.75MB      591.417ms
	//    zoom 2x                 4      16.00MB      15.75MB      660.933ms
	//
	// == SocketVIA, 256px blocks (64 KB chunks, repartitioned) (256 blocks on the slide) ==
	//    action             blocks      fetched       wasted       response
	//    open slide            256      16.00MB       0.00MB      308.433ms
	//    zoom 4x                16       1.00MB       0.00MB       25.318ms
	//    pan (+256,+0)           4       0.25MB       0.00MB       10.519ms
	//    pan (+0,+256)           4       0.25MB       0.00MB       10.518ms
	//    pan (-128,-128)         9       0.56MB       0.38MB       16.625ms
	//    zoom 2x                 9       0.56MB       0.31MB       16.625ms
}

// ExampleRunLoadBalancer runs the Figure 6 scenario: a data repository
// distributing work to three compute nodes, one of which is 4x slow.
// It shows the two effects the paper reports: the demand-driven policy
// routes work away from the slow node, and the finer blocks SocketVIA
// affords shrink the balancer's reaction time to its mistakes by
// roughly the block-size ratio (8x).
func ExampleRunLoadBalancer() {
	const slowFactor = 4
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		block := experiments.PipeliningBlock(kind)
		fmt.Printf("== %s (block size %d bytes, node comp1 is %dx slower) ==\n", kind, block, slowFactor)
		for _, policy := range []datacutter.Policy{datacutter.RoundRobin, datacutter.DemandDriven} {
			cfg := vizapp.DefaultLBConfig(kind, block)
			cfg.Policy = policy
			cfg.RecordAcks = true
			cfg.DataLocal = true
			cfg.SlowNode = 1
			cfg.SlowFactor = slowFactor
			res := vizapp.RunLoadBalancer(cfg)
			if res.Err != nil {
				panic(res.Err)
			}
			fmt.Printf("  %-14s makespan %12v  blocks per node %v  reaction %v\n",
				policy.String()+":", res.Makespan, res.BlocksPerNode, res.ReactionTime(1))
		}
		fmt.Println()
	}
	// Output:
	// == tcp (block size 16384 bytes, node comp1 is 4x slower) ==
	//   rr:            makespan    406.183ms  blocks per node [342 341 341]  reaction 1.226ms
	//   dd:            makespan    140.585ms  blocks per node [453 118 453]  reaction 1.222ms
	//
	// == socketvia (block size 2048 bytes, node comp1 is 4x slower) ==
	//   rr:            makespan    406.817ms  blocks per node [2731 2731 2730]  reaction 170.389us
	//   dd:            makespan    139.444ms  blocks per node [3628 936 3628]  reaction 170.139us
}
