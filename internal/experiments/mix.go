package experiments

import (
	"fmt"

	"hpsockets/internal/core"
	"hpsockets/internal/stats"
	"hpsockets/internal/vizapp"
	"hpsockets/internal/workload"
)

// fig9Fractions is the paper's x axis: the fraction of queries that
// are complete updates.
var fig9Fractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// fig9Partitions are the paper's dataset partitionings: none, 8 and 64
// partitions per image.
var fig9Partitions = []int{1, 8, 64}

// zoomChunks is the number of data chunks a zoom query retrieves.
const zoomChunks = 4

// mixCell is one query-mix point, run sequentially. It is left
// uncollected: observers see only the Figure 7/8 cells.
func (o Options) mixCell(kind core.Kind, compute bool, partitions int, frac float64) pipeCell {
	block := o.ImageBytes / partitions
	cfg := o.pipeConfig(kind, block, compute, true)
	mix := workload.Mix(o.Seed, o.MixQueries, frac, workload.Zoom)
	queries := make([]vizapp.Query, len(mix))
	for i, q := range mix {
		// Without partitioning a query has to access the entire data;
		// otherwise a zoom touches four chunks.
		queries[i] = cfg.CompleteQuery()
		if q != workload.Complete && partitions > 1 {
			queries[i] = cfg.ZoomQuery(zoomChunks)
		}
	}
	return pipeCell{cfg: cfg, queries: queries}
}

// Fig9 reproduces Figure 9: average response time versus the fraction
// of complete-update queries, for the dataset left unpartitioned or
// split into 8 or 64 chunks, on both transports.
func Fig9(o Options, compute bool) *stats.Table {
	variant := "(No Computation)"
	if compute {
		variant = "(Linear Computation)"
	}
	t := &stats.Table{
		Title:  "Figure 9: Effect of Multiple Queries on Average Response Time " + variant,
		XLabel: "fraction_complete",
		YLabel: "average response time (ms)",
		XFmt:   "%.1f",
		X:      fig9Fractions,
	}
	// Cell grid: (kind, partitioning, fraction), in the fixed legend
	// order. Many points share their whole input (every unpartitioned
	// point, and fractions that round to the same complete-query
	// count); the cell cache runs each distinct one once.
	kinds := []core.Kind{core.KindSocketVIA, core.KindTCP}
	var cells []pipeCell
	for _, kind := range kinds {
		for _, parts := range fig9Partitions {
			for _, frac := range fig9Fractions {
				cells = append(cells, o.mixCell(kind, compute, parts, frac))
			}
		}
	}
	res := o.runCells(cells)
	for _, kind := range kinds {
		for _, parts := range fig9Partitions {
			ys := make([]float64, len(fig9Fractions))
			for f := range ys {
				ys[f] = res[0].MeanResponse().Millis()
				res = res[1:]
			}
			label := fmt.Sprintf("%dparts_%s_ms", parts, kind)
			if parts == 1 {
				label = fmt.Sprintf("noparts_%s_ms", kind)
			}
			t.AddSeries(label, ys)
		}
	}
	return t
}
