// Package features implements RTL-Timer's three-level feature extraction
// (paper §3.3, Table 2): design-level features (endpoint rank percentile,
// sequential/combinational/total cell counts), cone-level features
// (driving-register count, cone size), and path-level features (pseudo-STA
// arrival time, path level count, operator counts, and sum/avg/std
// statistics of fanout, load capacitance and slew along the path).
package features

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rtltimer/internal/bog"
	"rtltimer/internal/metrics"
	"rtltimer/internal/sta"
)

// Extractor holds per-design state for feature extraction on one BOG
// representation.
//
// Everything it extracts from — the input-cone summaries, the rank
// percentiles, the cell counts and, for a lazy extractor, its timing
// view — is materialized once, on the first read that needs it (Cone,
// Rank, PathVector, SeqFeatures, DesignVector or State), and shared by
// every later read: a caller that never reads a feature never pays for a
// pass over the graph. An Extractor is safe for concurrent use.
type Extractor struct {
	G *bog.Graph

	// an and arr are a lazy extractor's source for its timing view r,
	// which it takes on the first read (see NewLazyExtractor).
	an  *sta.Analyzer
	arr []float64

	once    sync.Once
	r       *sta.Result    // the period-free timing view the path features read
	cones   []sta.ConeInfo // per endpoint
	rankPct []float64      // per endpoint: pseudo-STA arrival percentile

	seqCells  float64
	combCells float64
	total     float64
}

// NewExtractor returns the extractor of g under r and does no work: the
// cell counts, the per-endpoint input-cone walks and the rank sort run
// once, on the first feature read. g and r must not change afterwards.
func NewExtractor(g *bog.Graph, r *sta.Result) *Extractor {
	return &Extractor{G: g, r: r}
}

// NewLazyExtractor returns the extractor of g under the analyzer an and
// the period-free arrival vector arr, and does no work: its timing view
// an.At(arr, 0), the cell counts, the input-cone walks and the rank sort
// all run once, on the first feature read, so a representation that only
// answers timing queries never pays for them, nor builds a lazy
// analyzer's static state for them. arr must cover len(g.Nodes) entries;
// g, an and arr must not change afterwards.
func NewLazyExtractor(g *bog.Graph, an *sta.Analyzer, arr []float64) *Extractor {
	return &Extractor{G: g, an: an, arr: arr}
}

// materialize takes a lazy extractor's timing view, counts the cells,
// walks every endpoint's input cone and ranks the endpoints' pseudo
// arrival times, once per extractor. An extractor restored from state
// already holds the cones and ranks, so only the count runs.
func (e *Extractor) materialize() {
	e.once.Do(func() {
		if e.r == nil {
			e.r = e.an.At(e.arr, 0)
		}
		e.countCells()
		if e.cones != nil {
			return
		}
		cones := make([]sta.ConeInfo, len(e.G.Endpoints))
		w := sta.NewConeWalker(e.G)
		for ep := range cones {
			cones[ep] = w.InputCone(ep)
		}
		e.cones, e.rankPct = cones, rankPercentiles(e.r.EndpointAT)
	})
}

// rankPercentiles computes each endpoint's rank percentile of its pseudo
// arrival time — the design-level "rank_pct" feature.
func rankPercentiles(endpointAT []float64) []float64 {
	order := make([]int, len(endpointAT))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return endpointAT[order[a]] < endpointAT[order[b]]
	})
	out := make([]float64, len(order))
	n := float64(len(order))
	for rank, ep := range order {
		out[ep] = float64(rank+1) / n
	}
	return out
}

// Cone returns endpoint ep's input-cone summary, the source of the
// cone-level features.
func (e *Extractor) Cone(ep int) sta.ConeInfo {
	e.materialize()
	return e.cones[ep]
}

// Rank returns endpoint ep's rank percentile of its pseudo arrival time,
// in (0, 1].
func (e *Extractor) Rank(ep int) float64 {
	e.materialize()
	return e.rankPct[ep]
}

// State exposes the extractor's per-endpoint vectors, materializing them
// first if no read has yet; NewExtractorFromState rebuilds an extractor
// from them. The input-cone walks behind them are the expensive part of
// extraction — one backward DFS per endpoint. The returned slices alias
// the extractor's state and must be treated as read-only.
func (e *Extractor) State() (cones []sta.ConeInfo, rankPct []float64) {
	e.materialize()
	return e.cones, e.rankPct
}

// NewExtractorFromState rebuilds an extractor from vectors previously
// obtained with State, skipping the per-endpoint cone walks and the rank
// sort. Both vectors must cover len(g.Endpoints) entries; the extractor
// takes ownership of the slices. The design-level cell counts are left
// to the first feature read, like NewExtractor's. The engine persists no
// extractor state; this stays only because perfbench still calls it.
func NewExtractorFromState(g *bog.Graph, r *sta.Result, cones []sta.ConeInfo, rankPct []float64) (*Extractor, error) {
	if len(cones) != len(g.Endpoints) || len(rankPct) != len(g.Endpoints) {
		return nil, fmt.Errorf("features: state covers %d/%d endpoints, graph has %d",
			len(cones), len(rankPct), len(g.Endpoints))
	}
	return &Extractor{G: g, r: r, cones: cones, rankPct: rankPct}, nil
}

// countCells counts register bits and combinational operators in one pass
// over the nodes, with the op sets of Graph.SeqNodes and Graph.CombNodes.
func (e *Extractor) countCells() {
	seq, comb := 0, 0
	for i := range e.G.Nodes {
		switch e.G.Nodes[i].Op {
		case bog.RegQ:
			seq++
		case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
			comb++
		}
	}
	e.seqCells = float64(seq)
	e.combCells = float64(comb)
	e.total = e.seqCells + e.combCells
}

// featureNames lists the path-vector layout.
var featureNames = []string{
	// Design level.
	"rank_pct", "log_seq_cells", "log_comb_cells", "log_total_cells",
	// Cone level.
	"log_driving_regs", "log_cone_nodes",
	// Path level.
	"ep_arrival_sta", "path_levels", "n_and", "n_or", "n_xor", "n_not", "n_mux",
	"fanout_sum", "fanout_avg", "fanout_std",
	"load_sum", "load_avg", "load_std",
	"slew_sum", "slew_avg", "slew_std",
	"path_arrival",
}

// FeatureNames returns the names of the path-vector entries, aligned with
// PathVector output.
func FeatureNames() []string { return append([]string(nil), featureNames...) }

func log1p(x float64) float64 { return math.Log1p(x) }

// PathVector extracts the feature vector of one sampled path ending at
// endpoint ep.
func (e *Extractor) PathVector(ep int, path sta.Path) []float64 {
	e.materialize()
	v := make([]float64, 0, len(featureNames))
	// Design level.
	v = append(v,
		e.rankPct[ep],
		log1p(e.seqCells),
		log1p(e.combCells),
		log1p(e.total),
	)
	// Cone level.
	cone := e.cones[ep]
	v = append(v,
		log1p(float64(cone.DrivingRegs)),
		log1p(float64(cone.Nodes)),
	)
	// Path level.
	var nAnd, nOr, nXor, nNot, nMux float64
	var fo, load, slew []float64
	for _, n := range path {
		switch e.G.Nodes[n].Op {
		case bog.And:
			nAnd++
		case bog.Or:
			nOr++
		case bog.Xor:
			nXor++
		case bog.Not:
			nNot++
		case bog.Mux:
			nMux++
		}
		fo = append(fo, float64(e.r.Fanout[n]))
		load = append(load, e.r.Load[n])
		slew = append(slew, e.r.Slew[n])
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	last := path[len(path)-1]
	v = append(v,
		e.r.Arrival[e.G.Endpoints[ep].D], // endpoint pseudo-STA arrival
		float64(len(path)),
		nAnd, nOr, nXor, nNot, nMux,
		sum(fo), metrics.Mean(fo), metrics.Std(fo),
		sum(load), metrics.Mean(load), metrics.Std(load),
		sum(slew), metrics.Mean(slew), metrics.Std(slew),
		e.r.Arrival[last], // arrival along this particular path
	)
	return v
}

// nodeSeqDim is the per-node feature width for sequence models.
const nodeSeqDim = 9 + 4

// SeqFeatures extracts per-node features along a path for the transformer
// model: operator one-hot (9) plus normalized fanout, load, slew, arrival.
func (e *Extractor) SeqFeatures(path sta.Path) [][]float64 {
	e.materialize()
	out := make([][]float64, len(path))
	for i, n := range path {
		row := make([]float64, nodeSeqDim)
		row[int(e.G.Nodes[n].Op)] = 1
		row[9] = log1p(float64(e.r.Fanout[n]))
		row[10] = e.r.Load[n] / 10
		row[11] = e.r.Slew[n] * 10
		row[12] = e.r.Arrival[n]
		out[i] = row
	}
	return out
}

// DesignVector returns the design-level feature vector shared by all
// endpoints (used by the design WNS/TNS model).
func (e *Extractor) DesignVector() []float64 {
	e.materialize()
	return []float64{log1p(e.seqCells), log1p(e.combCells), log1p(e.total)}
}
