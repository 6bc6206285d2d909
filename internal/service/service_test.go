// Tests for the resident service: CLI byte-identity for the shared
// renderers, edit-session chain mapping, the HTTP surface, and the
// concurrent load harness asserting bit-identity against serial oracles
// and exact build counts under eviction churn.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/verilog"
)

// benchNames returns the first n benchmark design names.
func benchNames(t *testing.T, n int) []string {
	t.Helper()
	all := designs.All()
	if len(all) < n {
		t.Fatalf("only %d benchmark designs", len(all))
	}
	names := make([]string, n)
	for i := range names {
		names[i] = all[i].Name
	}
	return names
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestNewRejectsNegativeLimits: a negative limit is a configuration
// error naming the field and what its 0 means, never silently coerced;
// the zero Config still builds.
func TestNewRejectsNegativeLimits(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{MaxSessions: -1}, "MaxSessions must be >= 0 (0 = unlimited), got -1"},
		{Config{RequestTimeout: -time.Second}, "RequestTimeout must be >= 0 (0 = unlimited), got -1s"},
		{Config{SessionTTL: -time.Hour}, "SessionTTL must be >= 0 (0 = never), got -1h0m0s"},
		{Config{QueueWait: -time.Second}, "QueueWait must be >= 0 (0 = shed immediately), got -1s"},
		{Config{MaxInflight: -1}, "MaxInflight must be >= 0 (0 = 2×jobs), got -1"},
		{Config{MemBudget: -1}, "MemBudget must be >= 0 (0 = unlimited), got -1"},
	} {
		if s, err := New(tc.cfg); err == nil {
			s.Close()
			t.Errorf("New(%+v) accepted a negative limit", tc.cfg)
		} else if err.Error() != tc.want {
			t.Errorf("New(%+v) = %q, want %q", tc.cfg, err, tc.want)
		}
	}
	newService(t, Config{})
}

// TestSweepFmaxTextMatchesCLI: the daemon's /sweep and /fmax text payloads
// are byte-identical to what the one-shot CLI prints for the same query —
// the determinism contract's most visible face. Warm repeats return the
// same bytes without any new builds.
func TestSweepFmaxTextMatchesCLI(t *testing.T) {
	name := benchNames(t, 1)[0]
	ref := DesignRef{Bench: name}
	svc := newService(t, Config{Jobs: 2})

	// What the CLI does: a fresh engine, the shared renderers, stdout.
	cliEng := engine.New(2)
	reps, err := BuildSweepReps(context.Background(), cliEng, name, designs.Generate(mustSpec(t, name)))
	if err != nil {
		t.Fatal(err)
	}
	periods, _ := ParseSweep("0.3:0.9:5")
	var wantSweep, wantFmax bytes.Buffer
	RenderSweep(&wantSweep, name, reps, periods)
	RenderFmax(&wantFmax, name, reps)

	sw, err := svc.Sweep(context.Background(), SweepRequest{Design: ref, Sweep: "0.3:0.9:5"})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Text != wantSweep.String() {
		t.Fatalf("daemon sweep text differs from CLI output:\n%s\n--- want ---\n%s", sw.Text, wantSweep.String())
	}
	fm, err := svc.Fmax(context.Background(), FmaxRequest{Design: ref})
	if err != nil {
		t.Fatal(err)
	}
	if fm.Text != wantFmax.String() {
		t.Fatalf("daemon fmax text differs from CLI output:\n%s\n--- want ---\n%s", fm.Text, wantFmax.String())
	}

	builds := svc.Engine().Stats().Builds
	sw2, err := svc.Sweep(context.Background(), SweepRequest{Design: ref, Sweep: "0.3:0.9:5"})
	if err != nil {
		t.Fatal(err)
	}
	if sw2.Text != sw.Text {
		t.Fatal("warm sweep not byte-identical")
	}
	if got := svc.Engine().Stats().Builds; got != builds {
		t.Fatalf("warm sweep ran %d new builds", got-builds)
	}
}

func mustSpec(t *testing.T, name string) designs.Spec {
	t.Helper()
	sp, ok := designs.ByName(name)
	if !ok {
		t.Fatalf("missing %s", name)
	}
	return sp
}

// TestEvalDeterministicAcrossLifetimes: the same /eval query answered by
// two fresh services, a warm service, and a service that evicted and
// reloaded the entry marshals to identical JSON bytes.
func TestEvalDeterministicAcrossLifetimes(t *testing.T) {
	req := EvalRequest{Design: DesignRef{Bench: benchNames(t, 1)[0]}, Period: 0.55}
	marshal := func(s *Service) []byte {
		t.Helper()
		resp, err := s.Eval(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := newService(t, Config{Jobs: 2})
	b := newService(t, Config{Jobs: 4})
	first := marshal(a)
	if !bytes.Equal(first, marshal(b)) {
		t.Fatal("two fresh services disagree on /eval bytes")
	}
	if !bytes.Equal(first, marshal(a)) {
		t.Fatal("warm repeat disagrees on /eval bytes")
	}
	// Evict everything, answer again: the rebuild is bit-identical.
	a.Engine().SetMemBudget(1)
	a.Engine().SetMemBudget(0)
	if ev := a.Engine().Stats().Evictions; ev == 0 {
		t.Fatal("shrink to 1 byte evicted nothing")
	}
	if !bytes.Equal(first, marshal(a)) {
		t.Fatal("post-eviction rebuild disagrees on /eval bytes")
	}
}

// sessionDelta picks a structurally safe edit for the design's SOG graph —
// retype the first AND node to OR — returning both the wire form and the
// bog form so tests can drive the daemon and the oracle with the same
// delta.
func sessionDelta(t *testing.T, g *bog.Graph) ([]EditSpec, bog.Delta) {
	t.Helper()
	for i, n := range g.Nodes {
		if n.Op == bog.And {
			return []EditSpec{{Kind: "set-op", Node: int32(i), Op: "or"}},
				bog.Delta{bog.SetOpEdit(bog.NodeID(i), bog.Or)}
		}
	}
	t.Fatal("no AND node in SOG graph")
	return nil, nil
}

// TestSessionChainMapsToEditKeys: a session's reported chain is exactly
// the engine.EditKey digest chain, session evaluation matches a direct
// RepResult.Edit oracle bit-for-bit, and a second session replaying the
// same history shares the delta-keyed cache slots (no new derivations).
func TestSessionChainMapsToEditKeys(t *testing.T) {
	name := benchNames(t, 1)[0]
	src := designs.Generate(mustSpec(t, name))
	svc := newService(t, Config{Jobs: 2})

	// Oracle: a private engine, the same design, the same delta.
	oEng := engine.New(1)
	oReps, err := BuildSweepReps(context.Background(), oEng, name, src)
	if err != nil {
		t.Fatal(err)
	}
	specs, delta := sessionDelta(t, oReps[bog.SOG].Graph)
	oEdited, err := oReps[bog.SOG].Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	const period = 0.55
	oRes := oEdited.At(period)

	st, err := svc.SessionOpen(context.Background(), SessionOpenRequest{Design: DesignRef{Bench: name}, Variant: "SOG"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != 0 || st.Chain != "" {
		t.Fatalf("fresh session at %+v, want depth 0, empty chain", st)
	}
	st, err = svc.SessionEdit(context.Background(), SessionEditRequest{Session: st.Session, Edits: specs})
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Key{Design: engine.DesignTag(name, src), Variant: bog.SOG}
	want := engine.EditKey(base, delta)
	if st.Chain != want.Edit || st.Depth != 1 {
		t.Fatalf("session chain %q depth %d, want EditKey chain %q depth 1", st.Chain, st.Depth, want.Edit)
	}
	ev, err := svc.SessionEval(context.Background(), SessionEvalRequest{Session: st.Session, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ev.Result.WNS) != math.Float64bits(oRes.WNS) ||
		math.Float64bits(ev.Result.TNS) != math.Float64bits(oRes.TNS) {
		t.Fatalf("session eval WNS/TNS %v/%v, oracle %v/%v", ev.Result.WNS, ev.Result.TNS, oRes.WNS, oRes.TNS)
	}
	if ev.Result.ArrivalSHA256 != engine.ArrivalDigest(oEdited.Arrival) {
		t.Fatal("session arrival digest differs from direct RepResult.Edit oracle")
	}

	// Replay the same history in a second session: same chain, zero new
	// derivations (the delta-keyed slot is warm).
	edits := svc.Engine().Stats().Edits
	st2, err := svc.SessionOpen(context.Background(), SessionOpenRequest{Design: DesignRef{Bench: name}, Variant: "SOG"})
	if err != nil {
		t.Fatal(err)
	}
	st2, err = svc.SessionEdit(context.Background(), SessionEditRequest{Session: st2.Session, Edits: specs})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Chain != st.Chain {
		t.Fatal("replayed session reports a different chain")
	}
	if got := svc.Engine().Stats().Edits; got != edits {
		t.Fatalf("replay ran %d new derivations, want 0 (delta-keyed hit)", got-edits)
	}
	if err := svc.SessionClose(st.Session); err != nil {
		t.Fatal(err)
	}
	if err := svc.SessionClose(st.Session); err == nil {
		t.Fatal("double close succeeded")
	}
}

// postJSON drives one endpoint through the real HTTP stack.
func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// spaces is an endless stream of JSON whitespace, so a test can send a
// body of any length without holding it.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDecodeStrictTrailingSpaceIsBounded: the check after the value scans
// the rest of the body in fixed-size chunks instead of buffering it, so a
// query followed by 8 MiB of spaces allocates well under a megabyte (a
// decoder that buffers the padding allocates four times its size).
func TestDecodeStrictTrailingSpaceIsBounded(t *testing.T) {
	body := io.MultiReader(strings.NewReader(`{"session":"s1","period":0.5}`), io.LimitReader(spaces{}, 8<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req SessionEvalRequest
	err := decodeStrict(body, &req)
	runtime.ReadMemStats(&after)
	if err != nil || req.Session != "s1" || req.Period != 0.5 {
		t.Fatalf("decoded %+v, %v", req, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decoding a query and 8 MiB of trailing spaces allocated %d bytes", alloc)
	}
	// A stray byte past the first chunk is still found.
	err = decodeStrict(io.MultiReader(strings.NewReader(`{"session":"s1"}`), io.LimitReader(spaces{}, 5<<10), strings.NewReader("x")), &req)
	if err == nil || !strings.Contains(err.Error(), "trailing data after the JSON value") {
		t.Fatalf("stray byte after 5 KiB of spaces: %v", err)
	}
}

// TestHTTPSurface exercises the wire layer: happy paths, method
// discipline, strict decoding, and error payloads.
func TestHTTPSurface(t *testing.T) {
	name := benchNames(t, 1)[0]
	svc := newService(t, Config{Jobs: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := srv.Client()

	// A variant subset, asked first on the fresh service, builds only the
	// variants it lists; the full request then builds the other two.
	code, body := postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Bench: name}, Period: 0.5, Variants: []string{"xag", "SOG"}})
	if code != http.StatusOK {
		t.Fatalf("/eval subset: %d %s", code, body)
	}
	var sub EvalResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if b := svc.Stats().Stats.Builds; b != 2 {
		t.Fatalf("/eval subset [xag SOG] on a fresh service made %d builds, want 2", b)
	}
	code, body = postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Bench: name}, Period: 0.5})
	if code != http.StatusOK {
		t.Fatalf("/eval: %d %s", code, body)
	}
	var er EvalResponse
	if err := json.Unmarshal(body, &er); err != nil || len(er.Results) != len(bog.Variants()) {
		t.Fatalf("/eval payload: %v %s", err, body)
	}
	if b := svc.Stats().Stats.Builds; b != int64(len(bog.Variants())) {
		t.Fatalf("/eval after the subset: %d builds in all, want %d", b, len(bog.Variants()))
	}
	// The subset answers in request order, each entry equal to the full
	// answer's; a variant named twice, in any case, is a 400 naming it.
	full := map[string]VariantResult{}
	for _, r := range er.Results {
		full[r.Variant] = r
	}
	if len(sub.Results) != 2 || sub.Results[0] != full["XAG"] || sub.Results[1] != full["SOG"] {
		t.Fatalf("/eval subset [xag SOG]: %+v, want the XAG then SOG entries of %+v", sub.Results, er.Results)
	}
	if code, body := postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Bench: name}, Period: 0.5, Variants: []string{"AIG", "SOG", "aig"}}); code != http.StatusBadRequest || !strings.Contains(string(body), "AIG listed twice") {
		t.Fatalf("/eval with AIG twice: %d %s", code, body)
	}

	// GET on a POST endpoint, POST on /stats.
	if resp, err := c.Get(srv.URL + "/eval"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /eval: %v", resp.Status)
	} else {
		resp.Body.Close()
	}
	if code, _ := postJSON(t, c, srv.URL+"/stats", struct{}{}); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats: %d", code)
	}
	resp, err := c.Get(srv.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %v", err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Stats.Builds != int64(len(bog.Variants())) {
		t.Fatalf("stats builds %d, want %d", stats.Stats.Builds, len(bog.Variants()))
	}

	// Unknown bench and typo'd field are both 400 with an error payload.
	if code, body := postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Bench: "no-such"}, Period: 0.5}); code != http.StatusBadRequest || !strings.Contains(string(body), "unknown benchmark") {
		t.Fatalf("unknown bench: %d %s", code, body)
	}
	if code, body := postJSON(t, c, srv.URL+"/eval", map[string]any{"design": map[string]string{"bench": name}, "perid": 0.5}); code != http.StatusBadRequest {
		t.Fatalf("typo'd field accepted: %d %s", code, body)
	}
	// A body holds one JSON value: trailing garbage or a second request
	// is a 400 naming the trailing data; a trailing newline is whitespace.
	// A body past the 64 MiB cap is a 413 naming the limit wherever the
	// decoder stands when it reaches the cap, never answered as the prefix
	// the cap leaves; a body of exactly the cap is served. The padded
	// bodies stream through readers, so the test holds none of them.
	one := fmt.Sprintf(`{"design":{"bench":%q},"period":0.5}`, name)
	pad := func(n int) io.Reader { return io.LimitReader(spaces{}, int64(n)) }
	for _, tc := range []struct {
		name string
		body io.Reader
		code int
		want string
	}{
		{"garbage after a query", strings.NewReader(one + " garbage"), http.StatusBadRequest, "trailing data"},
		{"two queries", strings.NewReader(one + one), http.StatusBadRequest, "trailing data"},
		{"a query and a newline", strings.NewReader(one + "\n"), http.StatusOK, ""},
		{"a query, 64 MiB of spaces and a second query", io.MultiReader(strings.NewReader(one), pad(maxRequestBody), strings.NewReader(one)), http.StatusRequestEntityTooLarge, "64 MiB limit"},
		{"a query starting past the cap", io.MultiReader(pad(maxRequestBody), strings.NewReader(one)), http.StatusRequestEntityTooLarge, "64 MiB limit"},
		{"a query padded to exactly the cap", io.MultiReader(strings.NewReader(one), pad(maxRequestBody-len(one))), http.StatusOK, ""},
	} {
		// The JSON decoder keeps the whitespace before a value buffered
		// until the value ends, so a body padded before its query costs
		// the handler up to the cap in buffer; return it before the next
		// body, so the test peaks at one body's.
		debug.FreeOSMemory()
		code, _, body, err := postRaw(c, srv.URL+"/eval", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != tc.code || !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: %d %s, want %d naming %q", tc.name, code, body, tc.code, tc.want)
		}
	}
	// /annotate without a model says how to get one.
	if code, body := postJSON(t, c, srv.URL+"/annotate", AnnotateRequest{Design: DesignRef{Bench: name}}); code != http.StatusBadRequest || !strings.Contains(string(body), "-model") {
		t.Fatalf("/annotate without model: %d %s", code, body)
	}
	// A negative clock is rejected for what it is, before the model check.
	if code, body := postJSON(t, c, srv.URL+"/annotate", AnnotateRequest{Design: DesignRef{Bench: name}, Period: -1}); code != http.StatusBadRequest || !strings.Contains(string(body), "period") {
		t.Fatalf("/annotate with period -1: %d %s", code, body)
	}

	// Full session round trip over HTTP.
	code, body = postJSON(t, c, srv.URL+"/session/open", SessionOpenRequest{Design: DesignRef{Bench: name}, Variant: "SOG"})
	if code != http.StatusOK {
		t.Fatalf("/session/open: %d %s", code, body)
	}
	var st SessionState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	code, body = postJSON(t, c, srv.URL+"/session/eval", SessionEvalRequest{Session: st.Session, Period: 0.5})
	if code != http.StatusOK {
		t.Fatalf("/session/eval: %d %s", code, body)
	}
	code, body = postJSON(t, c, srv.URL+"/session/close", map[string]string{"session": st.Session})
	if code != http.StatusOK || !strings.Contains(string(body), st.Session) {
		t.Fatalf("/session/close: %d %s", code, body)
	}

	// Edit fields that bog would truncate are a 400, and the chain stays
	// put: a slot beyond int32 (it would wrap to slot 0) and a fourth
	// insert fanin (bog.InsertEdit keeps three).
	reps, err := BuildSweepReps(context.Background(), svc.Engine(), name, designs.Generate(mustSpec(t, name)))
	if err != nil {
		t.Fatal(err)
	}
	and, _ := sessionDelta(t, reps[bog.SOG].Graph)
	for _, tc := range []struct {
		variant, edits string
	}{
		{"SOG", fmt.Sprintf(`[{"kind":"set-fanin","node":%d,"slot":4294967296,"to":0}]`, and[0].Node)},
		{"AIMG", `[{"kind":"insert","op":"mux","fanin":[1,2,3,4]}]`},
	} {
		code, body := postJSON(t, c, srv.URL+"/session/open", SessionOpenRequest{Design: DesignRef{Bench: name}, Variant: tc.variant})
		if code != http.StatusOK {
			t.Fatalf("/session/open %s: %d %s", tc.variant, code, body)
		}
		var st SessionState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		edit := fmt.Sprintf(`{"session":%q,"edits":%s}`, st.Session, tc.edits)
		code, _, body, err := postRaw(c, srv.URL+"/session/edit", strings.NewReader(edit))
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Fatalf("edit %s on %s: %d %s, want 400", tc.edits, tc.variant, code, body)
		}
		_, body = postJSON(t, c, srv.URL+"/session/eval", SessionEvalRequest{Session: st.Session, Period: 0.5})
		var ev SessionEvalResponse
		if err := json.Unmarshal(body, &ev); err != nil || ev.State.Depth != 0 {
			t.Fatalf("after rejected edit %s: %v %s, want depth 0", tc.edits, err, body)
		}
	}
}

// TestDaemonLoadHarness is the ISSUE's load harness: N concurrent clients
// x M designs x mixed eval/sweep/fmax/edit queries over real HTTP, every
// response bit-identical to a serial oracle, with exact build counts —
// including through an eviction-churn phase, where the disk tier turns
// every LRU rebuild into a reload and the build count provably does not
// move. Run under -race by the CI daemon-load step.
func TestDaemonLoadHarness(t *testing.T) {
	const (
		clients = 6
		designN = 3
	)
	names := benchNames(t, designN)
	variants := len(bog.Variants())

	// Serial oracle: a private service answers every stateless query once;
	// the harness compares raw HTTP bodies against these bytes. Session
	// queries are compared field-wise (session ids are allocation-ordered).
	oracle := newService(t, Config{Jobs: 2, CacheDir: t.TempDir()})
	oracleSrv := httptest.NewServer(oracle.Handler())
	defer oracleSrv.Close()

	type query struct {
		path string
		body any
	}
	var queries []query
	for _, n := range names {
		ref := DesignRef{Bench: n}
		queries = append(queries,
			query{"/eval", EvalRequest{Design: ref, Period: 0.45}},
			query{"/eval", EvalRequest{Design: ref, Period: 0.8}},
			query{"/sweep", SweepRequest{Design: ref, Sweep: "0.3:0.9:4"}},
			query{"/fmax", FmaxRequest{Design: ref}},
		)
	}
	wantBody := make([][]byte, len(queries))
	for i, q := range queries {
		code, body := postJSON(t, oracleSrv.Client(), oracleSrv.URL+q.path, q.body)
		if code != http.StatusOK {
			t.Fatalf("oracle %s: %d %s", q.path, code, body)
		}
		wantBody[i] = body
	}
	// Per-design session oracles: the edited verdict each client must see.
	deltas := make(map[string][]EditSpec)
	wantEdit := make(map[string]SessionEvalResponse)
	for _, n := range names {
		src := designs.Generate(mustSpec(t, n))
		reps, err := BuildSweepReps(context.Background(), oracle.Engine(), n, src)
		if err != nil {
			t.Fatal(err)
		}
		specs, delta := sessionDelta(t, reps[bog.SOG].Graph)
		edited, err := reps[bog.SOG].Edit(delta)
		if err != nil {
			t.Fatal(err)
		}
		r := edited.At(0.6)
		deltas[n] = specs
		wantEdit[n] = SessionEvalResponse{
			Period: 0.6,
			Result: VariantResult{
				Variant:       "SOG",
				WNS:           r.WNS,
				TNS:           r.TNS,
				Endpoints:     len(edited.Graph.Endpoints),
				ArrivalSHA256: engine.ArrivalDigest(edited.Arrival),
			},
		}
	}

	// A daemon has one shard setting left, 0: every session edit derives
	// on the full graph.
	t.Run("shards=0", func(t *testing.T) {
		// The daemon under load: its own disk tier, so eviction churn reloads
		// instead of rebuilding.
		svc := newService(t, Config{Jobs: 4, CacheDir: t.TempDir()})
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()

		runClients := func(phase string, withSessions bool) {
			t.Helper()
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					c := srv.Client()
					// Each client walks the query list at its own offset so the
					// phases interleave designs and endpoint types.
					for k := 0; k < len(queries); k++ {
						i := (k + cl) % len(queries)
						code, body := postJSON(t, c, srv.URL+queries[i].path, queries[i].body)
						if code != http.StatusOK {
							t.Errorf("%s client %d %s: %d %s", phase, cl, queries[i].path, code, body)
							return
						}
						if !bytes.Equal(body, wantBody[i]) {
							t.Errorf("%s client %d %s: response diverged from serial oracle", phase, cl, queries[i].path)
							return
						}
					}
					if !withSessions {
						return
					}
					n := names[cl%len(names)]
					_, body := postJSON(t, c, srv.URL+"/session/open", SessionOpenRequest{Design: DesignRef{Bench: n}, Variant: "SOG"})
					var st SessionState
					if err := json.Unmarshal(body, &st); err != nil {
						t.Errorf("%s client %d open: %v %s", phase, cl, err, body)
						return
					}
					if _, body = postJSON(t, c, srv.URL+"/session/edit", SessionEditRequest{Session: st.Session, Edits: deltas[n]}); !json.Valid(body) {
						t.Errorf("%s client %d edit: %s", phase, cl, body)
						return
					}
					_, body = postJSON(t, c, srv.URL+"/session/eval", SessionEvalRequest{Session: st.Session, Period: 0.6})
					var ev SessionEvalResponse
					if err := json.Unmarshal(body, &ev); err != nil {
						t.Errorf("%s client %d eval: %v %s", phase, cl, err, body)
						return
					}
					want := wantEdit[n]
					if math.Float64bits(ev.Result.WNS) != math.Float64bits(want.Result.WNS) ||
						math.Float64bits(ev.Result.TNS) != math.Float64bits(want.Result.TNS) ||
						ev.Result.ArrivalSHA256 != want.Result.ArrivalSHA256 {
						t.Errorf("%s client %d: session verdict diverged from oracle", phase, cl)
						return
					}
					postJSON(t, c, srv.URL+"/session/close", map[string]string{"session": st.Session})
				}(cl)
			}
			wg.Wait()
		}

		// Warm phase: N clients, everything cold. Single-flight means each
		// (design, variant) builds exactly once and each design's delta derives
		// exactly once, no matter how many clients race.
		runClients("warm", true)
		st := svc.Engine().Stats()
		if want := int64(designN * variants); st.Builds != want {
			t.Fatalf("warm phase: %d builds, want exactly %d (single-flight)", st.Builds, want)
		}
		if st.Edits != int64(designN) || st.ShardEdits != 0 {
			t.Fatalf("warm phase: stats %+v, want exactly %d full-graph derivations", st, designN)
		}

		// Churn phase: squeeze the memory tier to ~40% and run the stateless
		// mix again. Evictions must happen, every response must stay
		// bit-identical, and — because evicted entries reload from the disk
		// tier — the build count must not move at all.
		svc.Engine().SetMemBudget(svc.Engine().MemUsed() * 2 / 5)
		runClients("churn", false)
		churn := svc.Engine().Stats()
		if churn.Evictions == 0 {
			t.Fatal("churn phase evicted nothing")
		}
		if churn.Builds != st.Builds {
			t.Fatalf("churn phase rebuilt: %d builds, want the warm count %d (disk tier must absorb eviction)", churn.Builds, st.Builds)
		}
		if churn.DiskHits == 0 {
			t.Fatal("churn phase never reloaded from the disk tier")
		}
		if used, budget := svc.Engine().MemUsed(), svc.Engine().MemBudget(); used > budget {
			t.Fatalf("resident charge %d exceeds budget %d after churn", used, budget)
		}
	})
}

// TestParseDeltaErrors: the wire edit parser rejects what bog would choke
// on, with positions.
func TestParseDeltaErrors(t *testing.T) {
	cases := []struct {
		name  string
		specs []EditSpec
		want  string
	}{
		{"empty batch", nil, "at least one"},
		{"bad kind", []EditSpec{{Kind: "swap"}}, `unknown kind "swap"`},
		{"bad op", []EditSpec{{Kind: "set-op", Node: 1, Op: "nand"}}, `unknown op "nand"`},
		{"bad insert op", []EditSpec{{Kind: "insert", Op: "blorp"}}, `unknown op "blorp"`},
		{"insert fanin overflow", []EditSpec{{Kind: "set-op", Node: 5, Op: "or"}, {Kind: "insert", Op: "mux", Fanin: []int32{1, 2, 3, 4}}}, "edit 1: insert has 4 fanins"},
	}
	for _, tc := range cases {
		_, err := parseDelta(tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The happy path covers all three kinds.
	delta, err := parseDelta([]EditSpec{
		{Kind: "set-fanin", Node: 5, Slot: 1, To: 3},
		{Kind: "set-op", Node: 5, Op: "or"},
		{Kind: "insert", Op: "and", Fanin: []int32{1, 2}},
	})
	if err != nil || len(delta) != 3 {
		t.Fatalf("happy path: %v, %d edits", err, len(delta))
	}
}

// TestHostileSourceIs400: a source nested past verilog.MaxNesting, or one
// whose hierarchy inlines past the instance cap, is the client's fault.
// /eval answers 400 naming the bound, and the daemon serves the next
// request.
func TestHostileSourceIs400(t *testing.T) {
	svc := newService(t, Config{Jobs: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := srv.Client()

	// Ten modules, each instantiating the next ten times: 10^10 instances.
	var fanout strings.Builder
	for l := 0; l < 10; l++ {
		fmt.Fprintf(&fanout, "module m%d(input a, output [9:0] y);\n", l)
		for i := 0; i < 10; i++ {
			if l == 9 {
				fmt.Fprintf(&fanout, "  assign y[%d] = a;\n", i)
			} else {
				fmt.Fprintf(&fanout, "  wire [9:0] w%d;\n  m%d u%d (.a(a), .y(w%d));\n  assign y[%d] = ^w%d;\n", i, l+1, i, i, i, i)
			}
		}
		fanout.WriteString("endmodule\n")
	}
	for _, tc := range []struct{ name, src, want string }{
		{"20,000 nested parentheses", "module m(output y); assign y = " + strings.Repeat("(", 20000) + "1" + strings.Repeat(")", 20000) + "; endmodule", fmt.Sprint(verilog.MaxNesting)},
		{"10^10 instances", fanout.String(), "65536"},
	} {
		code, body := postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Src: tc.src}, Period: 0.5})
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("/eval with %s: %d %s, want 400 naming %s", tc.name, code, body, tc.want)
		}
	}
	if code, body := postJSON(t, c, srv.URL+"/eval", EvalRequest{Design: DesignRef{Bench: benchNames(t, 1)[0]}, Period: 0.5}); code != http.StatusOK {
		t.Fatalf("/eval after the refusals: %d %s", code, body)
	}
}
