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

	"rtltimer/internal/bog"
	"rtltimer/internal/metrics"
	"rtltimer/internal/sta"
)

// Extractor holds per-design state for feature extraction on one BOG
// representation.
type Extractor struct {
	G *bog.Graph
	R *sta.Result

	Cones   []sta.ConeInfo // per endpoint
	RankPct []float64      // per endpoint: pseudo-STA arrival percentile

	seqCells  float64
	combCells float64
	total     float64
}

// NewExtractor precomputes cones and rank percentiles.
func NewExtractor(g *bog.Graph, r *sta.Result) *Extractor {
	e := &Extractor{G: g, R: r}
	e.countCells()
	e.Cones = make([]sta.ConeInfo, len(g.Endpoints))
	w := sta.NewConeWalker(g)
	for ep := range g.Endpoints {
		e.Cones[ep] = w.InputCone(ep)
	}
	e.RankPct = RankPercentiles(r.EndpointAT)
	return e
}

// RankPercentiles computes each endpoint's rank percentile of its pseudo
// arrival time — the design-level "rank_pct" feature. Shared by
// NewExtractor and Patch, so a patched extractor ranks exactly like a
// fresh one.
func RankPercentiles(endpointAT []float64) []float64 {
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

// State exposes the extractor's precomputed per-endpoint vectors for
// persistence (the engine's on-disk representation cache). The input-cone
// walks behind Cones are the expensive part of extractor construction —
// one backward DFS per endpoint — which is exactly what a warm cache load
// wants to skip. The returned slices alias the extractor's state and must
// be treated as read-only.
func (e *Extractor) State() (cones []sta.ConeInfo, rankPct []float64) {
	return e.Cones, e.RankPct
}

// NewExtractorFromState rebuilds an extractor from vectors previously
// obtained with State, skipping the per-endpoint cone walks and the rank
// sort. Both vectors must cover len(g.Endpoints) entries; the extractor
// takes ownership of the slices. The cheap design-level cell counts are
// recomputed from the graph.
func NewExtractorFromState(g *bog.Graph, r *sta.Result, cones []sta.ConeInfo, rankPct []float64) (*Extractor, error) {
	if len(cones) != len(g.Endpoints) || len(rankPct) != len(g.Endpoints) {
		return nil, fmt.Errorf("features: state covers %d/%d endpoints, graph has %d",
			len(cones), len(rankPct), len(g.Endpoints))
	}
	e := &Extractor{G: g, R: r, Cones: cones, RankPct: rankPct}
	e.countCells()
	return e, nil
}

// Patch returns the extractor of g, an edited copy of e's graph whose
// pseudo-STA result is r, without re-walking every cone: the stale
// endpoints' cones are walked on g, every other cone is copied from e,
// the rank percentiles are recomputed from r.EndpointAT and the cell
// counts from g. stale must name every endpoint whose input cone the edit
// can have changed (sta.Incremental.StaleCones); the result then equals
// NewExtractor(g, r). e is not modified.
func (e *Extractor) Patch(g *bog.Graph, r *sta.Result, stale []int) (*Extractor, error) {
	p, err := NewExtractorFromState(g, r, append([]sta.ConeInfo(nil), e.Cones...), RankPercentiles(r.EndpointAT))
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		w := sta.NewConeWalker(g)
		for _, ep := range stale {
			p.Cones[ep] = w.InputCone(ep)
		}
	}
	return p, nil
}

func (e *Extractor) countCells() {
	e.seqCells = float64(e.G.SeqNodes())
	e.combCells = float64(e.G.CombNodes())
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

// NumFeatures is the path-vector length.
func NumFeatures() int { return len(featureNames) }

func log1p(x float64) float64 { return math.Log1p(x) }

// PathVector extracts the feature vector of one sampled path ending at
// endpoint ep.
func (e *Extractor) PathVector(ep int, path sta.Path) []float64 {
	v := make([]float64, 0, len(featureNames))
	// Design level.
	v = append(v,
		e.RankPct[ep],
		log1p(e.seqCells),
		log1p(e.combCells),
		log1p(e.total),
	)
	// Cone level.
	cone := e.Cones[ep]
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
		fo = append(fo, float64(e.R.Fanout[n]))
		load = append(load, e.R.Load[n])
		slew = append(slew, e.R.Slew[n])
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
		e.R.Arrival[e.G.Endpoints[ep].D], // endpoint pseudo-STA arrival
		float64(len(path)),
		nAnd, nOr, nXor, nNot, nMux,
		sum(fo), metrics.Mean(fo), metrics.Std(fo),
		sum(load), metrics.Mean(load), metrics.Std(load),
		sum(slew), metrics.Mean(slew), metrics.Std(slew),
		e.R.Arrival[last], // arrival along this particular path
	)
	return v
}

// nodeSeqDim is the per-node feature width for sequence models.
const nodeSeqDim = 9 + 4

// NodeSeqDim returns the per-node feature dimension used by SeqFeatures.
func NodeSeqDim() int { return nodeSeqDim }

// SeqFeatures extracts per-node features along a path for the transformer
// model: operator one-hot (9) plus normalized fanout, load, slew, arrival.
func (e *Extractor) SeqFeatures(path sta.Path) [][]float64 {
	out := make([][]float64, len(path))
	for i, n := range path {
		row := make([]float64, nodeSeqDim)
		row[int(e.G.Nodes[n].Op)] = 1
		row[9] = log1p(float64(e.R.Fanout[n]))
		row[10] = e.R.Load[n] / 10
		row[11] = e.R.Slew[n] * 10
		row[12] = e.R.Arrival[n]
		out[i] = row
	}
	return out
}

// DesignVector returns the design-level feature vector shared by all
// endpoints (used by the design WNS/TNS model).
func (e *Extractor) DesignVector() []float64 {
	return []float64{log1p(e.seqCells), log1p(e.combCells), log1p(e.total)}
}

// Correlations reports, per feature, the Pearson correlation between the
// slowest-path feature vectors and endpoint labels, reproducing Table 2's
// Avg. R column. labels must align with the graph's endpoints; endpoints
// without labels carry NaN and are skipped.
func (e *Extractor) Correlations(labels []float64) map[string]float64 {
	var rows [][]float64
	var y []float64
	for ep := range e.G.Endpoints {
		if math.IsNaN(labels[ep]) {
			continue
		}
		p := e.R.SlowestPath(e.G, ep)
		rows = append(rows, e.PathVector(ep, p))
		y = append(y, labels[ep])
	}
	out := map[string]float64{}
	col := make([]float64, len(rows))
	for fi, name := range featureNames {
		for i, row := range rows {
			col[i] = row[fi]
		}
		out[name] = metrics.Pearson(y, col)
	}
	return out
}
