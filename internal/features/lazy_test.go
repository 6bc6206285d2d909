package features

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// eagerState is the retained oracle for the lazy extractor: the walk
// NewExtractor ran up front before it became lazy — one input-cone walk
// per endpoint, then a stable sort of the endpoint arrival times into
// rank percentiles.
func eagerState(g *bog.Graph, r *sta.Result) ([]sta.ConeInfo, []float64) {
	cones := make([]sta.ConeInfo, len(g.Endpoints))
	w := sta.NewConeWalker(g)
	for ep := range cones {
		cones[ep] = w.InputCone(ep)
	}
	order := make([]int, len(r.EndpointAT))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.EndpointAT[order[a]] < r.EndpointAT[order[b]]
	})
	rank := make([]float64, len(order))
	for k, ep := range order {
		rank[ep] = float64(k+1) / float64(len(order))
	}
	return cones, rank
}

// suiteGraph is one suite design's graph under one variant, with the
// period-free timing result the engine hands its extractor.
type suiteGraph struct {
	name string
	g    *bog.Graph
	r    *sta.Result
}

func suiteGraphs(t *testing.T, names ...string) []suiteGraph {
	t.Helper()
	lib := liberty.DefaultPseudoLib()
	var out []suiteGraph
	for _, spec := range designs.All() {
		if len(names) > 0 && !slices.Contains(names, spec.Name) {
			continue
		}
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range bog.Variants() {
			g, err := bog.Build(d, v)
			if err != nil {
				t.Fatal(err)
			}
			an := sta.NewAnalyzer(g, lib)
			out = append(out, suiteGraph{spec.Name + "/" + v.String(), g, an.At(an.Arrivals(1), 0)})
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLazyExtractorMatchesEagerOracle: for every suite design and variant,
// NewExtractor walks no cone and counts no cell, and the first read
// through each of Cone, Rank, PathVector, State and DesignVector — on its
// own fresh extractor — answers bit for bit what the eager walk and the
// graph's own cell counts give. A NewExtractorFromState extractor counts
// no cell before its first read either, and its DesignVector matches too.
func TestLazyExtractorMatchesEagerOracle(t *testing.T) {
	firstReads := []struct {
		name string
		read func(t *testing.T, sg suiteGraph, e *Extractor, cones []sta.ConeInfo, rank []float64)
	}{
		{"Cone", func(t *testing.T, sg suiteGraph, e *Extractor, cones []sta.ConeInfo, _ []float64) {
			for ep, want := range cones {
				if got := e.Cone(ep); got != want {
					t.Fatalf("Cone(%d) = %+v, want %+v", ep, got, want)
				}
			}
		}},
		{"Rank", func(t *testing.T, sg suiteGraph, e *Extractor, _ []sta.ConeInfo, rank []float64) {
			for ep, want := range rank {
				if got := e.Rank(ep); !sameBits(got, want) {
					t.Fatalf("Rank(%d) = %v, want %v", ep, got, want)
				}
			}
		}},
		{"PathVector", func(t *testing.T, sg suiteGraph, e *Extractor, cones []sta.ConeInfo, rank []float64) {
			oracle, err := NewExtractorFromState(sg.g, sg.r, cones, rank)
			if err != nil {
				t.Fatal(err)
			}
			for ep := range sg.g.Endpoints {
				p := sg.r.SlowestPath(sg.g, ep)
				got, want := e.PathVector(ep, p), oracle.PathVector(ep, p)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("PathVector(%d)[%s] = %v, want %v", ep, featureNames[i], got[i], want[i])
					}
				}
			}
		}},
		{"State", func(t *testing.T, sg suiteGraph, e *Extractor, cones []sta.ConeInfo, rank []float64) {
			gotCones, gotRank := e.State()
			if len(gotCones) != len(cones) || len(gotRank) != len(rank) {
				t.Fatalf("State covers %d/%d endpoints, want %d", len(gotCones), len(gotRank), len(cones))
			}
			for ep := range cones {
				if gotCones[ep] != cones[ep] || !sameBits(gotRank[ep], rank[ep]) {
					t.Fatalf("State endpoint %d: %+v %v, want %+v %v", ep, gotCones[ep], gotRank[ep], cones[ep], rank[ep])
				}
			}
		}},
		{"DesignVector", func(t *testing.T, sg suiteGraph, e *Extractor, _ []sta.ConeInfo, _ []float64) {
			checkDesignVector(t, sg.g, e)
		}},
	}
	for _, sg := range suiteGraphs(t) {
		t.Run(sg.name, func(t *testing.T) {
			cones, rank := eagerState(sg.g, sg.r)
			for _, fr := range firstReads {
				e := NewExtractor(sg.g, sg.r)
				if e.cones != nil || e.rankPct != nil || e.seqCells != 0 || e.combCells != 0 || e.total != 0 {
					t.Fatalf("NewExtractor walked the graph before any read")
				}
				fr.read(t, sg, e, cones, rank)
				if len(e.cones) != len(sg.g.Endpoints) {
					t.Fatalf("first read through %s left %d of %d cones", fr.name, len(e.cones), len(sg.g.Endpoints))
				}
			}
			restored, err := NewExtractorFromState(sg.g, sg.r, slices.Clone(cones), slices.Clone(rank))
			if err != nil {
				t.Fatal(err)
			}
			if restored.seqCells != 0 || restored.combCells != 0 || restored.total != 0 {
				t.Fatalf("NewExtractorFromState counted cells before any read")
			}
			checkDesignVector(t, sg.g, restored)
		})
	}
}

// checkDesignVector asserts e's DesignVector is, bit for bit, the log1p
// of the graph's own register, combinational and total cell counts.
func checkDesignVector(t *testing.T, g *bog.Graph, e *Extractor) {
	t.Helper()
	seq, comb := float64(g.SeqNodes()), float64(g.CombNodes())
	want := []float64{math.Log1p(seq), math.Log1p(comb), math.Log1p(seq + comb)}
	got := e.DesignVector()
	if len(got) != len(want) {
		t.Fatalf("DesignVector has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("DesignVector[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLazyExtractorConcurrentFirstRead: eight goroutines make their first
// read of one extractor at once, through every accessor. The state
// materializes once — every goroutine sees the same backing arrays — and
// matches the eager oracle. Run under -race, an unsynchronized walk or a
// second one racing the first fails the test.
func TestLazyExtractorConcurrentFirstRead(t *testing.T) {
	const readers = 8
	for _, sg := range suiteGraphs(t, "b20", "Rocket1") {
		t.Run(sg.name, func(t *testing.T) {
			cones, rank := eagerState(sg.g, sg.r)
			e := NewExtractor(sg.g, sg.r)
			ep := len(cones) - 1
			path := sg.r.SlowestPath(sg.g, ep)
			type view struct {
				cone *sta.ConeInfo
				rank *float64
			}
			views := make([]view, readers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					switch i % 4 {
					case 0:
						_ = e.Cone(ep)
					case 1:
						_ = e.Rank(ep)
					case 2:
						_ = e.PathVector(ep, path)
					case 3:
						_, _ = e.State()
					}
					c, r := e.State()
					views[i] = view{&c[0], &r[0]}
				}()
			}
			close(start)
			wg.Wait()
			for i, v := range views {
				if v != views[0] {
					t.Fatalf("reader %d sees state at %p/%p, reader 0 at %p/%p", i, v.cone, v.rank, views[0].cone, views[0].rank)
				}
			}
			gotCones, gotRank := e.State()
			for i := range cones {
				if gotCones[i] != cones[i] || !sameBits(gotRank[i], rank[i]) {
					t.Fatalf("endpoint %d: %+v %v, want %+v %v", i, gotCones[i], gotRank[i], cones[i], rank[i])
				}
			}
		})
	}
}
