package experiments

import (
	"reflect"
	"sort"
	"testing"

	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/vizapp"
)

// cachedKeys lists the inputs the run's cell cache holds.
func cachedKeys(o Options) []string {
	o.cells.mu.Lock()
	defer o.cells.mu.Unlock()
	keys := make([]string, 0, len(o.cells.res))
	for k := range o.cells.res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pipelineRuns reports how many pipelines the run's cell cache has run.
func pipelineRuns(o Options) int {
	o.cells.mu.Lock()
	defer o.cells.mu.Unlock()
	return o.cells.runs
}

// TestCellCacheKeysWholeInput evaluates, in one run, Options that
// differ from an already-cached cell only in a field its config or
// query list carries: each must read its own value, as a direct
// pipeline run of the same cell computes it, not the one cached first.
func TestCellCacheKeysWholeInput(t *testing.T) {
	const block = 32 << 10
	base := QuickOptions()
	base.ImageBytes = 2 << 20
	UpdateRate(base, core.KindTCP, false, block)
	PartialLatency(base, core.KindTCP, false, block)
	direct := func(c pipeCell) vizapp.Result { return vizapp.RunPipeline(c.cfg, c.queries) }

	chains := base
	chains.Chains = 2
	want := direct(chains.rateCell(core.KindTCP, false, block)).UpdatesPerSec()
	if got := UpdateRate(chains, core.KindTCP, false, block); got != want {
		t.Errorf("Chains=2 rate after Chains=3 = %v, want %v", got, want)
	}

	queries := base
	queries.LatencyQueries = 5
	wantLat := direct(queries.latCell(core.KindTCP, false, block)).MeanResponse()
	if got := PartialLatency(queries, core.KindTCP, false, block); got != wantLat {
		t.Errorf("5-query latency after 3-query = %v, want %v", got, wantLat)
	}
}

// TestFig9RunsEachDistinctInputOnce counts the distinct (config, query
// list) pairs of the Figure 9 grid independently of the cache key and
// requires Figure 9 to run exactly that many pipelines.
func TestFig9RunsEachDistinctInputOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 9 grid is slow")
	}
	// Which points repeat depends on the query mix and the partition
	// counts, not on the image size; a small image keeps the grid fast.
	o := QuickOptions()
	o.ImageBytes = 2 << 20
	var distinct []pipeCell
	for _, kind := range []core.Kind{core.KindSocketVIA, core.KindTCP} {
		for _, parts := range fig9Partitions {
			for _, frac := range fig9Fractions {
				c := o.mixCell(kind, false, parts, frac)
				seen := false
				for _, d := range distinct {
					seen = seen || (reflect.DeepEqual(c.cfg, d.cfg) && reflect.DeepEqual(c.queries, d.queries))
				}
				if !seen {
					distinct = append(distinct, c)
				}
			}
		}
	}
	t.Logf("%d distinct inputs among %d points", len(distinct), 2*len(fig9Partitions)*len(fig9Fractions))
	Fig9(o, false)
	if got := pipelineRuns(o); got != len(distinct) {
		t.Errorf("Fig9 ran %d pipelines, want one per distinct input (%d)", got, len(distinct))
	}
}

// TestFig7GridIndependentOfWorkersAndObservers requires Figure 7 to
// compute the same cell set sequentially and unobserved as in parallel
// with telemetry on, and Figure 8 to find all of it cached.
func TestFig7GridIndependentOfWorkersAndObservers(t *testing.T) {
	seq, par := QuickOptions(), QuickOptions()
	for _, o := range []*Options{&seq, &par} {
		o.ImageBytes, o.BlockLadder = 2<<20, []int{8 << 10, 32 << 10, 128 << 10}
	}
	seq.Workers = 1
	par.Workers, par.Telemetry = 4, hpsmon.NewSet()
	Fig7(seq, false)
	Fig7(par, false)
	want := cachedKeys(seq)
	if got := cachedKeys(par); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig7 computed %d cells at workers=4 with telemetry, %d at workers=1", len(got), len(want))
	}
	if n := par.Telemetry.Len(); n != len(want) {
		t.Errorf("telemetry collected %d cells, want %d", n, len(want))
	}
	// A cache read is not instrumented, so any cell Figure 8 runs
	// itself lands in a fresh telemetry set.
	seq.Telemetry = hpsmon.NewSet()
	Fig8(seq, false)
	if n := seq.Telemetry.Len(); n != 0 {
		t.Errorf("Fig8 after Fig7 ran %d new pipelines", n)
	}
}
