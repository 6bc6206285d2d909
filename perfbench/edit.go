package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// editsPerSession is how many single-site edits one session applies.
const editsPerSession = 8

// editOpsPerSec sizes the edit-session sequence (both callers together).
const editOpsPerSec = 280

// editBudgetShare sets the edit-session daemon's memory-tier budget as a
// multiple of its resident base entries (48 MiB for the full suite): a
// third above the bases, far below the derived entries a run creates, so
// derivations evict and evicted bases reload from disk.
const editBudgetShare = 4.0 / 3

// editCand is one eligible single-site edit: point an endpoint driver's
// fanin slot 0 at its slot-1 fanin, which is already one of its inputs,
// so the graph stays acyclic.
type editCand struct{ node, to int32 }

// editSession is one client session: a (design, variant) base, the seed
// that picks its edits, and once resolved the edits and eval periods.
type editSession struct {
	design, variant int
	pick            int64
	edits           []editCand
	periods         []int
	first           int // global index of the session's first op
}

// editEval is what one op's /session/eval answered.
type editEval struct {
	resp service.SessionEvalResponse
	ok   bool
}

type editWorkload struct {
	suite     []design
	sessions  []editSession
	nops      int
	dir       string
	svc       *service.Service
	srv       *httptest.Server
	cands     [][]editCand // per design*4+variant
	decisions []string
	evals     []editEval // per op, from the untraced phase
}

func (w *editWorkload) name() string { return "edit-session" }

func pairOf(design, variant int) int { return design*len(bog.Variants()) + variant }

// prepare draws the sessions: every (design, variant) pair once per
// round, in seeded order, each with its own seeded edit pick.
func (w *editWorkload) prepare(seed int64, seconds int, work string, suite []design) {
	w.suite = suite
	w.dir = filepath.Join(work, "cache")
	nv := len(bog.Variants())
	pairs := len(w.suite) * nv
	rng := newRand(seed)
	order := stratified(rng, pairs, rounds(seconds, float64(editOpsPerSec)/editsPerSession, nv, 1))
	w.sessions = make([]editSession, len(order))
	for i, p := range order {
		w.sessions[i] = editSession{design: p / nv, variant: p % nv, pick: rng.Int63()}
	}
}

func (w *editWorkload) opCount() int { return w.nops }

// resolveSessions picks each session's edits among its base's eligible
// sites, without repeats, and its eval periods. It needs the suite's
// graphs, so it runs after the first set-up, still before any timing.
func (w *editWorkload) resolveSessions() {
	w.nops = 0
	for i := range w.sessions {
		s := &w.sessions[i]
		cands := w.cands[pairOf(s.design, s.variant)]
		rng := rand.New(rand.NewSource(s.pick))
		perm := rng.Perm(len(cands))
		s.edits = s.edits[:0]
		s.periods = s.periods[:0]
		for _, c := range perm[:min(editsPerSession, len(perm))] {
			s.edits = append(s.edits, cands[c])
			s.periods = append(s.periods, rng.Intn(len(evalPeriods)))
		}
		s.first = w.nops
		w.nops += len(s.edits)
	}
}

// candidates lists each base graph's eligible edit sites in endpoint
// order.
func candidates(reps []map[bog.Variant]*engine.RepResult) [][]editCand {
	nv := len(bog.Variants())
	out := make([][]editCand, len(reps)*nv)
	for d := range reps {
		for vi, v := range bog.Variants() {
			g := reps[d][v].Graph
			seen := map[bog.NodeID]bool{}
			var cs []editCand
			for _, ep := range g.Endpoints {
				if ep.D < 0 || seen[ep.D] {
					continue
				}
				n := g.Nodes[ep.D]
				if n.NumFanin() < 2 || n.Fanin[0] == n.Fanin[1] {
					continue
				}
				switch n.Op {
				case bog.And, bog.Or, bog.Xor, bog.Mux:
				default:
					continue
				}
				seen[ep.D] = true
				cs = append(cs, editCand{node: int32(ep.D), to: int32(n.Fanin[1])})
			}
			out[pairOf(d, vi)] = cs
		}
	}
	return out
}

func editSpec(c editCand) []service.EditSpec {
	return []service.EditSpec{{Kind: "set-fanin", Node: c.node, Slot: 0, To: c.to}}
}

// setup starts the daemon handler as the README deploys it (a cache
// directory and a memory budget), builds the suite's base entries into a
// fresh directory, then applies seed-independent edits until the budget
// first evicts, so the timed phase starts with a full memory tier.
func (w *editWorkload) setup(ctx context.Context) error {
	cfg := daemonConfig()
	cfg.CacheDir = w.dir
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	w.svc = svc
	w.srv = httptest.NewServer(svc.Handler())
	reps, err := buildSuite(ctx, svc, w.suite)
	if err != nil {
		return err
	}
	w.cands = candidates(reps)
	w.decisions = w.decisions[:0]
	for d, ds := range w.suite {
		w.decisions = append(w.decisions, ds.name+":"+shardDecision(reps[d]))
	}
	reps = nil
	svc.Engine().SetMemBudget(int64(editBudgetShare * float64(svc.Engine().MemUsed())))
	rng := newRand(0)
	nv := len(bog.Variants())
	for k := 0; svc.Engine().Stats().Evictions == 0; k++ {
		if k >= len(w.cands) {
			return fmt.Errorf("memory budget %d never filled", svc.Engine().MemBudget())
		}
		p := rng.Intn(len(w.cands))
		st, err := svc.SessionOpen(ctx, service.SessionOpenRequest{
			Design: service.DesignRef{Bench: w.suite[p/nv].name}, Variant: bog.Variants()[p%nv].String()})
		if err != nil {
			return err
		}
		for _, c := range w.cands[p][:min(editsPerSession, len(w.cands[p]))] {
			if _, err := svc.SessionEdit(ctx, service.SessionEditRequest{Session: st.Session, Edits: editSpec(c)}); err != nil {
				return err
			}
		}
		if err := svc.SessionClose(st.Session); err != nil {
			return err
		}
	}
	return nil
}

func (w *editWorkload) reset() error {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	w.srv, w.svc = nil, nil
	return os.RemoveAll(w.dir)
}

func (w *editWorkload) shardDecisions() []string { return w.decisions }

func (w *editWorkload) verify(ctx context.Context) error {
	w.resolveSessions()
	if w.nops == 0 {
		return fmt.Errorf("no eligible edit sites in the suite")
	}
	return nil
}

// postJSON posts a request value and decodes the response into out.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	data, err := post(client, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// measure runs the sessions on callers() closed-loop clients over HTTP.
// Each op is one /session/edit plus one /session/eval; opening and
// closing a session are in the timed phase but in no op.
func (w *editWorkload) measure(ctx context.Context) *phase {
	ph := &phase{attempted: w.nops, editRequests: int64(w.nops)}
	client := w.srv.Client()
	url := w.srv.URL
	w.evals = make([]editEval, w.nops)
	lats := make([][]float64, callers())
	errs := make([][]error, callers())
	smp := newSampler()
	st0 := w.svc.Engine().Stats()
	u0 := readUsage()
	t0 := time.Now()
	clientLoop(len(w.sessions), func(c, si int) {
		s := &w.sessions[si]
		if len(s.edits) == 0 {
			return
		}
		var open service.SessionState
		err := postJSON(client, url+"/session/open", service.SessionOpenRequest{
			Design: service.DesignRef{Bench: w.suite[s.design].name}, Variant: bog.Variants()[s.variant].String()}, &open)
		if err != nil {
			errs[c] = append(errs[c], fmt.Errorf("session %d open: %w", si, err))
			return
		}
		for j, e := range s.edits {
			op := s.first + j
			start := time.Now()
			var st service.SessionState
			err := postJSON(client, url+"/session/edit", service.SessionEditRequest{Session: open.Session, Edits: editSpec(e)}, &st)
			var ev service.SessionEvalResponse
			if err == nil {
				err = postJSON(client, url+"/session/eval", service.SessionEvalRequest{Session: open.Session, Period: evalPeriods[s.periods[j]]}, &ev)
			}
			lats[c] = append(lats[c], ms(time.Since(start)))
			if err != nil {
				errs[c] = append(errs[c], fmt.Errorf("session %d op %d: %w", si, j, err))
			} else {
				w.evals[op] = editEval{resp: ev, ok: true}
			}
			smp.maybe(c, op, w.svc.Engine())
		}
		var closed struct{}
		if err := postJSON(client, url+"/session/close", map[string]string{"session": open.Session}, &closed); err != nil {
			errs[c] = append(errs[c], fmt.Errorf("session %d close: %w", si, err))
		}
	})
	ph.wall = time.Since(t0)
	ph.use = readUsage().sub(u0)
	for c := range lats {
		ph.lats = append(ph.lats, lats[c]...)
		for _, err := range errs[c] {
			ph.fail(err)
		}
	}
	smp.into(ph)
	st := w.svc.Stats()
	ph.stats = addEngineStats(st.Stats, st0, -1)
	ph.shed = st.Shed
	if ph.stats.Builds != 0 {
		ph.fail(fmt.Errorf("edit sessions ran %d builds after set-up, want 0", ph.stats.Builds))
	}
	if ph.stats.Evictions == 0 {
		ph.fail(fmt.Errorf("edit sessions evicted nothing: the memory budget is not exercised"))
	}
	for _, err := range w.checkEvals() {
		ph.fail(err)
	}
	return ph
}

// baseGraphs rebuilds base graphs through the frontend on its own, one per
// (design, variant), for the edit oracle.
type baseGraphs map[int]*bog.Graph

func (b baseGraphs) get(suite []design, design, variant int) (*bog.Graph, error) {
	p := pairOf(design, variant)
	if g, ok := b[p]; ok {
		return g, nil
	}
	parsed, err := verilog.Parse(suite[design].src)
	if err != nil {
		return nil, err
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		return nil, err
	}
	g, err := bog.Build(d, bog.Variants()[variant])
	if err != nil {
		return nil, err
	}
	b[p] = g
	return g, nil
}

// checkEvals is the edit oracle, run after the timed phase: every session
// eval must equal a fresh sta.Analyze of the base graph with the
// session's edits so far applied. A mismatching op counts as failed.
func (w *editWorkload) checkEvals() []error {
	var errs []error
	lib := liberty.DefaultPseudoLib()
	bases := baseGraphs{}
	for si, s := range w.sessions {
		if len(s.edits) == 0 {
			continue
		}
		base, err := bases.get(w.suite, s.design, s.variant)
		if err != nil {
			return append(errs, err)
		}
		g := base.Clone()
		for j, e := range s.edits {
			if _, err := g.Apply(bog.Delta{bog.SetFaninEdit(bog.NodeID(e.node), 0, bog.NodeID(e.to))}); err != nil {
				errs = append(errs, fmt.Errorf("session %d edit %d: oracle apply: %w", si, j, err))
				break
			}
			ev := w.evals[s.first+j]
			if !ev.ok {
				continue // already counted as failed
			}
			ref := sta.Analyze(g, lib, evalPeriods[s.periods[j]])
			got := ev.resp.Result
			if got.WNS != ref.WNS || got.TNS != ref.TNS || got.Endpoints != len(g.Endpoints) ||
				got.ArrivalSHA256 != arrivalDigest(ref.Arrival) || ev.resp.State.Depth != j+1 {
				errs = append(errs, fmt.Errorf("session %d (%s %s) edit %d: eval differs from a fresh analysis",
					si, w.suite[s.design].name, bog.Variants()[s.variant], j))
			}
		}
	}
	return errs
}

func (w *editWorkload) traceSetup(ctx context.Context, tr *tracer) error { return nil }

// traceOps replays the sessions through the full-graph derive chain the
// engine runs for an edit (clone, incremental re-time, snapshot, extractor
// rebuild) and the eval that follows it (slack view, digest), starting
// from each session's resident base.
func (w *editWorkload) traceOps(ctx context.Context, tr *tracer) error {
	eng := w.svc.Engine()
	lib := liberty.DefaultPseudoLib()
	errs := make([]error, callers())
	clientLoop(len(w.sessions), func(c, si int) {
		s := w.sessions[si]
		if errs[c] != nil || len(s.edits) == 0 {
			return
		}
		d := w.suite[s.design]
		rr, err := eng.EvalRep(engine.Key{Design: engine.DesignTag(d.name, d.src), Variant: bog.Variants()[s.variant]}, lib, engine.LazyDesign(d.src))
		if err != nil {
			errs[c] = err
			return
		}
		g, an, arr := rr.Graph, rr.An, rr.Arrival
		for j, e := range s.edits {
			op := s.first + j
			root := tr.beginOp(op, d.name+" "+bog.Variants()[s.variant].String())
			var g2 *bog.Graph
			tr.do(op, root, "bog.clone", func() { g2 = g.Clone() })
			var an2 *sta.Analyzer
			var arr2 []float64
			tr.do(op, root, "sta.incremental", func() {
				load, slew, delay, _ := an.State()
				var inc *sta.Incremental
				if inc, err = sta.NewIncrementalFromState(g2, lib, load, slew, delay, arr); err != nil {
					return
				}
				if _, err = inc.Apply(bog.Delta{bog.SetFaninEdit(bog.NodeID(e.node), 0, bog.NodeID(e.to))}); err != nil {
					return
				}
				an2, arr2 = inc.Snapshot()
				tr.count("sta.nodes_retimed", float64(inc.Recomputed()))
			})
			if err != nil {
				tr.end(root)
				errs[c] = err
				return
			}
			var ext *features.Extractor
			tr.do(op, root, "features.extract", func() { ext = features.NewExtractor(g2, an2.At(arr2, 0)) })
			tr.count("features.cone_nodes", coneNodes(ext))
			var r *sta.Result
			tr.do(op, root, "sta.at", func() { r = an2.At(arr2, evalPeriods[s.periods[j]]) })
			tr.count("sta.at_calls", 1)
			var digest string
			tr.do(op, root, "service.eval_self", func() { digest = arrivalDigest(arr2) })
			tr.end(root)
			if ev := w.evals[op]; ev.ok && (ev.resp.Result.WNS != r.WNS || ev.resp.Result.TNS != r.TNS || ev.resp.Result.ArrivalSHA256 != digest) {
				errs[c] = fmt.Errorf("traced session %d edit %d: chain answer differs from the service's", si, j)
				return
			}
			g, an, arr = g2, an2, arr2
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
