package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
)

// Query kinds of the warm-query mix.
const (
	kindEval = iota
	kindSweep
	kindFmax
	numKinds
)

var kindPath = [numKinds]string{"/eval", "/sweep", "/fmax"}

// sweepSpec is the 13-point sweep every /sweep request asks for.
const sweepSpec = "0.3:0.9:13"

// warmOpsPerSec sizes the warm-query sequence (both callers together).
const warmOpsPerSec = 4600

// memEvery is how many ops pass between two heap samples on the daemon
// workloads: a fixed op count, not a timer, so every run takes the same
// samples.
const memEvery = 64

// daemonConfig is rtltimerd's configuration at its flag defaults.
func daemonConfig() service.Config {
	return service.Config{
		Jobs:        cliJobs(),
		QueueWait:   500 * time.Millisecond,
		MaxSessions: 1024,
		SessionTTL:  time.Hour,
	}
}

// warmOp is one request of the warm-query mix.
type warmOp struct {
	kind, design, period int
	inline               bool
}

// warmKey identifies a distinct answer: the inline and by-name forms of a
// request get the same one.
type warmKey struct{ kind, design, period int }

type warmWorkload struct {
	suite     []design
	ops       []warmOp
	svc       *service.Service
	srv       *httptest.Server
	decisions []string
	bodies    map[warmOp][]byte  // request bodies, marshaled before timing
	oracle    map[warmKey][]byte // serially computed response bytes
}

func (w *warmWorkload) name() string { return "warm-query" }

// prepare draws the mix: 80% /eval at a seeded period, 15% 13-point
// /sweep, 5% /fmax; half by name and half inline. Each kind cycles
// through seeded permutations of the suite, so every seed asks every
// design equally often.
func (w *warmWorkload) prepare(seed int64, seconds int, work string, suite []design) {
	w.suite = suite
	rng := newRand(seed)
	n := len(w.suite) * rounds(seconds, warmOpsPerSec, 1, 20)
	n -= n % 40
	kinds := make([]int, 0, n)
	for i := range n {
		switch r := i % 40; {
		case r < 32:
			kinds = append(kinds, kindEval)
		case r < 38:
			kinds = append(kinds, kindSweep)
		default:
			kinds = append(kinds, kindFmax)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var byKind [numKinds][]int
	for k := range byKind {
		byKind[k] = stratified(rng, len(w.suite), n/len(w.suite)+1)
	}
	var next [numKinds]int
	w.ops = make([]warmOp, n)
	for i, k := range kinds {
		o := warmOp{kind: k, design: byKind[k][next[k]], inline: i%2 == 1}
		next[k]++
		if k == kindEval {
			o.period = rng.Intn(len(evalPeriods))
		}
		w.ops[i] = o
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i].inline, w.ops[j].inline = w.ops[j].inline, w.ops[i].inline })
}

func (w *warmWorkload) opCount() int { return len(w.ops) }

func (w *warmWorkload) designRef(o warmOp) service.DesignRef {
	d := w.suite[o.design]
	if o.inline {
		return service.DesignRef{Src: d.src, Name: d.name}
	}
	return service.DesignRef{Bench: d.name}
}

func (w *warmWorkload) request(o warmOp) any {
	ref := w.designRef(o)
	switch o.kind {
	case kindSweep:
		return service.SweepRequest{Design: ref, Sweep: sweepSpec}
	case kindFmax:
		return service.FmaxRequest{Design: ref}
	}
	return service.EvalRequest{Design: ref, Period: evalPeriods[o.period]}
}

// setup starts the daemon's handler on a loopback listener and makes the
// whole suite resident.
func (w *warmWorkload) setup(ctx context.Context) error {
	svc, err := service.New(daemonConfig())
	if err != nil {
		return err
	}
	w.svc = svc
	w.srv = httptest.NewServer(svc.Handler())
	reps, err := buildSuite(ctx, svc, w.suite)
	if err != nil {
		return err
	}
	w.decisions = w.decisions[:0]
	for d, ds := range w.suite {
		w.decisions = append(w.decisions, ds.name+":"+shardDecision(reps[d]))
	}
	return nil
}

func (w *warmWorkload) reset() error {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	w.srv, w.svc = nil, nil
	return nil
}

func (w *warmWorkload) shardDecisions() []string { return w.decisions }

// call answers one request by a direct, serial Service call.
func (w *warmWorkload) call(ctx context.Context, o warmOp) (any, error) {
	switch req := w.request(o).(type) {
	case service.SweepRequest:
		return w.svc.Sweep(ctx, req)
	case service.FmaxRequest:
		return w.svc.Fmax(ctx, req)
	case service.EvalRequest:
		return w.svc.Eval(ctx, req)
	}
	return nil, fmt.Errorf("unknown request kind %d", o.kind)
}

// encodeResponse encodes a payload as the handler does.
func encodeResponse(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return b.Bytes()
}

// verify marshals every distinct request body and computes the serial
// oracle: each distinct answer by a direct Service call, encoded as the
// handler encodes it.
func (w *warmWorkload) verify(ctx context.Context) error {
	w.bodies = map[warmOp][]byte{}
	w.oracle = map[warmKey][]byte{}
	for _, o := range w.ops {
		if _, ok := w.bodies[o]; !ok {
			body, err := json.Marshal(w.request(o))
			if err != nil {
				return err
			}
			w.bodies[o] = body
		}
		k := warmKey{o.kind, o.design, o.period}
		if _, ok := w.oracle[k]; ok {
			continue
		}
		resp, err := w.call(ctx, o)
		if err != nil {
			return err
		}
		w.oracle[k] = encodeResponse(resp)
	}
	return nil
}

// post sends one request and returns the response body.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// clientLoop runs the op sequence on callers() closed-loop clients: each
// takes the next op as soon as its previous answer arrived. The clients
// run on an engine pool, the module's one sanctioned fan-out.
func clientLoop(n int, fn func(client, i int)) {
	var next atomic.Int64
	c := callers()
	engine.New(c).ForEach(c, func(client int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(client, i)
		}
	})
}

// sampler takes the heap samples of a daemon workload every memEvery ops.
type sampler struct {
	heap, memUsed [][]float64 // per client
}

func newSampler() *sampler {
	return &sampler{heap: make([][]float64, callers()), memUsed: make([][]float64, callers())}
}

func (s *sampler) maybe(client, i int, eng *engine.Engine) {
	if i%memEvery == 0 {
		s.heap[client] = append(s.heap[client], float64(heapLive())/mb)
		s.memUsed[client] = append(s.memUsed[client], float64(eng.MemUsed())/mb)
	}
}

func (s *sampler) into(p *phase) {
	for c := range s.heap {
		p.heap = append(p.heap, s.heap[c]...)
		p.memUsed = append(p.memUsed, s.memUsed[c]...)
	}
}

func (w *warmWorkload) measure(ctx context.Context) *phase {
	ph := &phase{attempted: len(w.ops)}
	client := w.srv.Client()
	lats := make([][]float64, callers())
	errs := make([][]error, callers())
	smp := newSampler()
	st0 := w.svc.Engine().Stats()
	u0 := readUsage()
	t0 := time.Now()
	clientLoop(len(w.ops), func(c, i int) {
		o := w.ops[i]
		start := time.Now()
		got, err := post(client, w.srv.URL+kindPath[o.kind], w.bodies[o])
		lats[c] = append(lats[c], ms(time.Since(start)))
		if err == nil && !bytes.Equal(got, w.oracle[warmKey{o.kind, o.design, o.period}]) {
			err = fmt.Errorf("op %d %s %s: response differs from the serial oracle", i, kindPath[o.kind], w.suite[o.design].name)
		}
		if err != nil {
			errs[c] = append(errs[c], err)
		}
		smp.maybe(c, i, w.svc.Engine())
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
	if ph.stats.Builds != 0 || ph.stats.DiskHits != 0 {
		ph.fail(fmt.Errorf("warm queries ran %d builds and %d disk loads, want none", ph.stats.Builds, ph.stats.DiskHits))
	}
	return ph
}

func (w *warmWorkload) traceSetup(ctx context.Context, tr *tracer) error { return nil }

// traceOps replays the mix. Each op's root holds the real HTTP request;
// after it, the same request is answered by a direct Service call
// (charged to the request, so http.request self time is transport, JSON
// and the admission gate) and the call's layer chain is replayed through
// exported calls (charged to the call, so its self time is what no
// exported layer covers: the arrival digest and response assembly).
func (w *warmWorkload) traceOps(ctx context.Context, tr *tracer) error {
	client := w.srv.Client()
	eng := w.svc.Engine()
	lib := liberty.DefaultPseudoLib()
	errs := make([]error, callers())
	clientLoop(len(w.ops), func(c, i int) {
		if errs[c] != nil {
			return
		}
		o := w.ops[i]
		root := tr.beginOp(i, kindPath[o.kind]+" "+w.suite[o.design].name)
		req := tr.begin(i, root, "http.request")
		got, err := post(client, w.srv.URL+kindPath[o.kind], w.bodies[o])
		tr.end(req)
		tr.end(root)
		if err == nil && !bytes.Equal(got, w.oracle[warmKey{o.kind, o.design, o.period}]) {
			err = fmt.Errorf("traced op %d: response differs from the serial oracle", i)
		}
		if err != nil {
			errs[c] = err
			return
		}
		call := tr.begin(i, req, "service.call")
		_, err = w.call(ctx, o)
		tr.end(call)
		if err != nil {
			errs[c] = err
			return
		}
		errs[c] = w.traceChain(tr, i, call, o, eng, lib)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceChain issues the layer calls a Service query is made of.
func (w *warmWorkload) traceChain(tr *tracer, i, parent int, o warmOp, eng *engine.Engine, lib *liberty.PseudoLib) error {
	var name, src, tag string
	tr.do(i, parent, "service.resolve", func() {
		if o.inline {
			name, src = w.suite[o.design].name, w.suite[o.design].src
		} else {
			sp, _ := designs.ByName(w.suite[o.design].name)
			name, src = sp.Name, designs.Generate(sp)
		}
		tag = engine.DesignTag(name, src)
	})
	reps := map[bog.Variant]*engine.RepResult{}
	for _, v := range bog.Variants() {
		var rr *engine.RepResult
		var err error
		tr.do(i, parent, "engine.evalrep", func() { rr, err = eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.LazyDesign(src)) })
		if err != nil {
			return err
		}
		reps[v] = rr
	}
	switch o.kind {
	case kindEval:
		for _, v := range bog.Variants() {
			tr.do(i, parent, "sta.at", func() { reps[v].At(evalPeriods[o.period]) })
			tr.count("sta.at_calls", 1)
		}
	case kindSweep:
		periods, err := service.ParseSweep(sweepSpec)
		if err != nil {
			return err
		}
		tr.do(i, parent, "service.render", func() {
			var b strings.Builder
			service.RenderSweep(&b, name, reps, periods)
		})
	case kindFmax:
		for _, v := range bog.Variants() {
			tr.do(i, parent, "service.fmax_search", func() { service.FmaxSearch(reps[v]) })
		}
		tr.do(i, parent, "service.render", func() {
			var b strings.Builder
			service.RenderFmax(&b, name, reps)
		})
	}
	return nil
}
