// Package service is the resident query engine behind rtltimerd (ROADMAP
// item 1): one engine.Engine held warm across requests, exposed through
// typed request/response methods that an HTTP layer (or a test harness)
// drives directly. The determinism contract is the engine's, surfaced:
// every response is a pure function of the request and the engine's
// standing bit-identity guarantees, so the same query answered by a
// day-old daemon, a fresh daemon, or the one-shot CLI produces identical
// bytes. The /sweep and /fmax text payloads are literally the CLI
// renderers' output (see render.go).
//
// Sessions are the daemon-native surface over RepResult.Edit: a client
// opens a session on one (design, variant) base representation and applies
// JSON edit batches; each batch maps 1:1 onto one RepResult.Edit call, so
// the session's chain key is exactly the engine.EditKey chain and replayed
// histories hit the delta-keyed memory tier.
package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtltimer/internal/annotate"
	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
)

// Config configures a Service. The zero value is usable: all cores, no
// disk cache, no memory budget, no model, default admission gate, no
// request deadline, no session cap or reaping.
type Config struct {
	Jobs      int    // evaluation workers (0 = all cores)
	CacheDir  string // persistent representation cache (empty = memory only)
	MemBudget int64  // approximate resident bytes for the memory tier (0 = unlimited)
	ModelPath string // saved model enabling Annotate (empty = Annotate errors)
	Seed      int64  // model/dataset seed for Annotate builds

	// Survivability knobs (see admission.go, reaper.go). MaxInflight
	// bounds concurrently admitted POST requests (0 = 2×jobs); QueueWait
	// is how long an excess request may wait for a slot before a 503
	// (0 = shed immediately). RequestTimeout is the per-request deadline
	// wired through the request context (0 = unlimited). MaxSessions
	// caps the open-session table (0 = unlimited); SessionTTL reaps
	// sessions idle that long (0 = never), on a ReapInterval cadence
	// (0 = TTL/4). Clock is the time seam for retention decisions
	// (nil = time.Now); results never depend on it.
	MaxInflight    int
	QueueWait      time.Duration
	RequestTimeout time.Duration
	MaxSessions    int
	SessionTTL     time.Duration
	ReapInterval   time.Duration
	Clock          func() time.Time
}

// Service is the resident engine plus its session table. Safe for
// concurrent use; all engine-level concurrency control is the engine's.
type Service struct {
	eng   *engine.Engine
	model *core.Model
	seed  int64

	gate           *gate
	requestTimeout time.Duration
	shed           atomic.Int64 // requests rejected 503 by the gate

	clock       func() time.Time
	maxSessions int
	sessionTTL  time.Duration
	reapStop    chan struct{}
	reapDone    chan struct{}
	closeOnce   sync.Once

	mu       sync.Mutex
	sessions map[string]*session
	nextSess uint64

	// bench memoizes designs.Generate and the design tag per built-in
	// benchmark name; resolve rejects unknown names first, so it holds at
	// most one entry per built-in design.
	benchMu sync.Mutex
	bench   map[string]benchEntry
}

// benchEntry is one built-in benchmark's generated source and its
// engine.DesignTag.
type benchEntry struct {
	src, tag string
}

// session is one client's edit chain over a single base representation.
// design/variant/head/chain/depth are guarded by the session's own mu;
// lastUse and inflight are table-level retention state guarded by
// Service.mu (the reaper reads them without touching sess.mu).
type session struct {
	mu      sync.Mutex
	design  string
	variant bog.Variant
	head    *engine.RepResult
	chain   engine.Key // base key with the accumulated Edit digest chain
	depth   int        // applied edit batches

	lastUse  time.Time // last acquire or release (Service.mu)
	inflight int       // requests currently using this session (Service.mu)
}

// New builds the resident service: engine configured, model loaded (when
// given), sessions empty. Errors are configuration errors — a negative
// limit, a bad cache dir, an unloadable model.
func New(cfg Config) (*Service, error) {
	if err := engine.ValidateConcurrency(cfg.Jobs); err != nil {
		return nil, err
	}
	if err := validateLimits(cfg); err != nil {
		return nil, err
	}
	eng := engine.New(cfg.Jobs)
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
		eng.SetCacheDir(cfg.CacheDir)
	}
	eng.SetMemBudget(cfg.MemBudget)
	s := &Service{
		eng:            eng,
		seed:           cfg.Seed,
		sessions:       map[string]*session{},
		bench:          map[string]benchEntry{},
		requestTimeout: cfg.RequestTimeout,
		clock:          cfg.Clock,
		maxSessions:    cfg.MaxSessions,
		sessionTTL:     cfg.SessionTTL,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 2 * eng.Jobs()
	}
	s.gate = newGate(inflight, cfg.QueueWait)
	if cfg.ModelPath != "" {
		m, err := core.LoadFile(cfg.ModelPath)
		if err != nil {
			return nil, fmt.Errorf("service: loading model: %w", err)
		}
		s.model = m
	}
	if cfg.SessionTTL > 0 {
		interval := cfg.ReapInterval
		if interval <= 0 {
			interval = cfg.SessionTTL / 4
			if interval <= 0 {
				interval = cfg.SessionTTL
			}
		}
		s.startReaper(interval)
	}
	return s, nil
}

// validateLimits rejects negative limits instead of coercing them: every
// limit already gives 0 a documented meaning, and a negative value would
// silently take some other one.
func validateLimits(cfg Config) error {
	for _, l := range []struct {
		name, zero string
		v          any
		neg        bool
	}{
		{"MaxInflight", "2×jobs", cfg.MaxInflight, cfg.MaxInflight < 0},
		{"QueueWait", "shed immediately", cfg.QueueWait, cfg.QueueWait < 0},
		{"RequestTimeout", "unlimited", cfg.RequestTimeout, cfg.RequestTimeout < 0},
		{"MaxSessions", "unlimited", cfg.MaxSessions, cfg.MaxSessions < 0},
		{"SessionTTL", "never", cfg.SessionTTL, cfg.SessionTTL < 0},
		{"ReapInterval", "TTL/4", cfg.ReapInterval, cfg.ReapInterval < 0},
		{"MemBudget", "unlimited", cfg.MemBudget, cfg.MemBudget < 0},
	} {
		if l.neg {
			return fmt.Errorf("%s must be >= 0 (0 = %s), got %v", l.name, l.zero, l.v)
		}
	}
	return nil
}

// Engine exposes the resident engine (stats, budget tuning, tests).
func (s *Service) Engine() *engine.Engine { return s.eng }

// DesignRef names the design a request targets: either a built-in
// benchmark by name, or inline Verilog source with an optional display
// name. Exactly one of Bench and Src must be set.
type DesignRef struct {
	Bench string `json:"bench,omitempty"`
	Src   string `json:"src,omitempty"`
	Name  string `json:"name,omitempty"` // display name for Src (default "inline")
}

// resolvedDesign is a DesignRef resolved for a query: the display name,
// the source text, the engine.DesignTag every cache key of the design
// carries, and the spec Annotate needs.
type resolvedDesign struct {
	name, src, tag string
	spec           designs.Spec
}

// resolve turns a DesignRef into the name, source and tag every engine
// query keys on, plus the spec Annotate needs. A built-in benchmark's
// source and tag are memoized; an inline source is hashed per request,
// since a memo keyed on unbounded client text would itself need a bound.
func (s *Service) resolve(ref DesignRef) (resolvedDesign, error) {
	switch {
	case ref.Bench != "" && ref.Src != "":
		return resolvedDesign{}, fmt.Errorf("design wants exactly one of bench or src, got both")
	case ref.Bench != "":
		sp, ok := designs.ByName(ref.Bench)
		if !ok {
			return resolvedDesign{}, fmt.Errorf("unknown benchmark %q", ref.Bench)
		}
		b := s.benchDesign(sp)
		return resolvedDesign{name: sp.Name, src: b.src, tag: b.tag, spec: sp}, nil
	case ref.Src != "":
		name := ref.Name
		if name == "" {
			name = "inline"
		}
		return resolvedDesign{name: name, src: ref.Src, tag: engine.DesignTag(name, ref.Src),
			spec: designs.Spec{Name: name, Seed: s.seed}}, nil
	default:
		return resolvedDesign{}, fmt.Errorf("design wants one of bench or src")
	}
}

// benchDesign returns the generated source and tag of a built-in
// benchmark, generating and hashing it on the first request for that name.
func (s *Service) benchDesign(sp designs.Spec) benchEntry {
	s.benchMu.Lock()
	defer s.benchMu.Unlock()
	b, ok := s.bench[sp.Name]
	if !ok {
		src := designs.Generate(sp)
		b = benchEntry{src: src, tag: engine.DesignTag(sp.Name, src)}
		s.bench[sp.Name] = b
	}
	return b
}

// parseVariant maps the wire name ("SOG", "AIG", ...) onto the variant.
func parseVariant(name string) (bog.Variant, error) {
	for _, v := range bog.Variants() {
		if strings.EqualFold(name, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want one of SOG, AIG, AIMG, XAG)", name)
}

// EvalRequest asks for the pseudo-STA verdict of one design at one period.
type EvalRequest struct {
	Design   DesignRef `json:"design"`
	Period   float64   `json:"period"`
	Variants []string  `json:"variants,omitempty"` // default: all four
}

// VariantResult is one representation's verdict at the requested period.
type VariantResult struct {
	Variant   string  `json:"variant"`
	WNS       float64 `json:"wns"`
	TNS       float64 `json:"tns"`
	Endpoints int     `json:"endpoints"`
	// ArrivalSHA256 fingerprints the period-free arrival vector
	// (engine.ArrivalDigest) so harnesses can assert full bit-identity
	// without shipping the vector.
	ArrivalSHA256 string `json:"arrival_sha256"`
}

// EvalResponse is the /eval payload.
type EvalResponse struct {
	Design  string          `json:"design"`
	Period  float64         `json:"period"`
	Results []VariantResult `json:"results"`
}

// Eval answers one single-period query from the resident cache.
func (s *Service) Eval(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	if !(req.Period > 0) || math.IsInf(req.Period, 1) {
		return nil, badRequestf("eval wants a finite positive period, got %v", req.Period)
	}
	// Each variant is answered once, in request order: a name listed
	// twice (in any case) is refused before anything is built.
	want := bog.Variants()
	if len(req.Variants) > 0 {
		want = want[:0]
		for _, vn := range req.Variants {
			v, err := parseVariant(vn)
			if err != nil {
				return nil, badRequest(err)
			}
			if slices.Contains(want, v) {
				return nil, badRequestf("variant %v listed twice", v)
			}
			want = append(want, v)
		}
	}
	d, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	reps, err := buildSweepReps(ctx, s.eng, d.tag, d.src)
	if err != nil {
		return nil, classifyEngineErr(err)
	}
	resp := &EvalResponse{Design: d.name, Period: req.Period}
	for _, v := range want {
		rr := reps[v]
		wns, tns := rr.Summary(req.Period)
		resp.Results = append(resp.Results, VariantResult{
			Variant:       v.String(),
			WNS:           wns,
			TNS:           tns,
			Endpoints:     len(rr.Graph.Endpoints),
			ArrivalSHA256: rr.ArrivalSHA256,
		})
	}
	return resp, nil
}

// SweepRequest asks for the WNS/TNS-vs-period curve.
type SweepRequest struct {
	Design DesignRef `json:"design"`
	Sweep  string    `json:"sweep"` // lo:hi:steps, the CLI's -sweep syntax
}

// SweepResponse carries the curve as the CLI renders it: Text is
// byte-identical to `rtltimer -sweep` output for the same design.
type SweepResponse struct {
	Design string `json:"design"`
	Points int    `json:"points"`
	Text   string `json:"text"`
}

// Sweep answers a period-sweep query from the resident cache.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	periods, err := ParseSweep(req.Sweep)
	if err != nil {
		return nil, badRequest(err)
	}
	d, rerr := s.resolve(req.Design)
	if rerr != nil {
		return nil, badRequest(rerr)
	}
	reps, berr := buildSweepReps(ctx, s.eng, d.tag, d.src)
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	var b strings.Builder
	RenderSweep(&b, d.name, reps, periods)
	return &SweepResponse{Design: d.name, Points: len(periods), Text: b.String()}, nil
}

// FmaxRequest asks for each variant's maximum frequency: the inverse of
// its critical period, the least period with WNS >= 0 (FmaxSearch).
type FmaxRequest struct {
	Design DesignRef `json:"design"`
}

// FmaxVariant is one representation's fmax verdict.
type FmaxVariant struct {
	Variant  string  `json:"variant"`
	Feasible bool    `json:"feasible"`           // the variant has timing endpoints
	Period   float64 `json:"period,omitempty"`   // critical period, ns
	FmaxGHz  float64 `json:"fmax_ghz,omitempty"` // 1/period
}

// FmaxResponse carries both the parsed verdicts and the CLI-identical text.
type FmaxResponse struct {
	Design  string        `json:"design"`
	Results []FmaxVariant `json:"results"`
	Text    string        `json:"text"`
}

// Fmax answers a maximum-frequency query from the resident cache.
func (s *Service) Fmax(ctx context.Context, req FmaxRequest) (*FmaxResponse, error) {
	d, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	reps, berr := buildSweepReps(ctx, s.eng, d.tag, d.src)
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	results := fmaxVariants(reps)
	var b strings.Builder
	renderFmax(&b, d.name, results)
	return &FmaxResponse{Design: d.name, Results: results, Text: b.String()}, nil
}

// AnnotateRequest asks for the model's slack-annotated source.
type AnnotateRequest struct {
	Design DesignRef `json:"design"`
	Period float64   `json:"period,omitempty"` // 0 = automatic per-design clock
}

// AnnotateResponse carries the prediction header numbers and the annotated
// Verilog text.
type AnnotateResponse struct {
	Design string  `json:"design"`
	WNS    float64 `json:"wns"`
	TNS    float64 `json:"tns"`
	Period float64 `json:"period"`
	Text   string  `json:"text"`
}

// Annotate predicts per-signal slack with the loaded model and returns the
// annotated source. Errors when the daemon was started without a model.
func (s *Service) Annotate(ctx context.Context, req AnnotateRequest) (*AnnotateResponse, error) {
	if err := dataset.ValidatePeriod(req.Period); err != nil {
		return nil, badRequest(err)
	}
	if s.model == nil {
		return nil, badRequestf("annotate needs a trained model: start the daemon with -model")
	}
	d, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dd, derr := dataset.BuildFromSource(d.spec, d.src,
		dataset.BuildOptions{Seed: s.seed, Period: req.Period, Engine: s.eng})
	if derr != nil {
		return nil, classifyEngineErr(derr)
	}
	pred := s.model.Predict(dd)
	out, aerr := annotate.Annotate(d.src, pred, annotate.Options{})
	if aerr != nil {
		return nil, classifyEngineErr(aerr)
	}
	return &AnnotateResponse{Design: d.name, WNS: pred.WNS, TNS: pred.TNS, Period: pred.Period, Text: out}, nil
}

// StatsResponse is the /stats payload: the engine counters plus the
// resident-memory accounting, the session table size, and the admission
// gate's shed count (requests rejected 503 under overload).
type StatsResponse struct {
	Stats     engine.Stats `json:"stats"`
	MemUsed   int64        `json:"mem_used"`
	MemBudget int64        `json:"mem_budget"`
	CacheDir  string       `json:"cache_dir,omitempty"`
	Sessions  int          `json:"sessions"`
	Model     bool         `json:"model"`
	Shed      int64        `json:"shed"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() *StatsResponse {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return &StatsResponse{
		Stats:     s.eng.Stats(),
		MemUsed:   s.eng.MemUsed(),
		MemBudget: s.eng.MemBudget(),
		CacheDir:  s.eng.CacheDir(),
		Sessions:  n,
		Model:     s.model != nil,
		Shed:      s.shed.Load(),
	}
}

// SessionOpenRequest opens an edit session on one base representation.
type SessionOpenRequest struct {
	Design  DesignRef `json:"design"`
	Variant string    `json:"variant"`
}

// SessionState reports a session's position in its edit chain.
type SessionState struct {
	Session string `json:"session"`
	Design  string `json:"design"`
	Variant string `json:"variant"`
	Depth   int    `json:"depth"` // applied edit batches
	// Chain is the accumulated engine edit-chain digest (engine.Key.Edit):
	// empty at the base, one 64-hex digest appended per batch. Two sessions
	// that replayed the same history report the same chain and share the
	// same delta-keyed cache slots.
	Chain string `json:"chain"`
}

// SessionOpen resolves (builds, reloads or warms) the one base
// representation the session edits, through the engine's (design,
// variant) key, and registers the session at chain depth 0; the design's
// other variants are neither built nor reloaded. The -max-sessions cap is
// checked before the build (reject cheap) and re-checked at insertion
// (the table may have filled while this open was building).
func (s *Service) SessionOpen(ctx context.Context, req SessionOpenRequest) (*SessionState, error) {
	v, err := parseVariant(req.Variant)
	if err != nil {
		return nil, badRequest(err)
	}
	d, rerr := s.resolve(req.Design)
	if rerr != nil {
		return nil, badRequest(rerr)
	}
	if err := s.checkSessionCap(); err != nil {
		return nil, err
	}
	key := engine.Key{Design: d.tag, Variant: v}
	head, berr := s.eng.EvalRepCtx(ctx, key, liberty.DefaultPseudoLib(), engine.LazyDesign(d.src))
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	sess := &session{
		design:  d.name,
		variant: v,
		head:    head,
		chain:   key,
		lastUse: s.now(),
	}
	s.mu.Lock()
	if s.maxSessions > 0 && len(s.sessions) >= s.maxSessions {
		s.mu.Unlock()
		return nil, s.sessionCapError()
	}
	s.nextSess++
	id := fmt.Sprintf("s%d", s.nextSess)
	s.sessions[id] = sess
	s.mu.Unlock()
	return s.state(id, sess), nil
}

// checkSessionCap pre-screens SessionOpen against -max-sessions.
func (s *Service) checkSessionCap() error {
	if s.maxSessions <= 0 {
		return nil
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	if n >= s.maxSessions {
		return s.sessionCapError()
	}
	return nil
}

// sessionCapError is the clear-message 400 the cap satellite requires: it
// names the limit and what the client can do about it.
func (s *Service) sessionCapError() error {
	return badRequestf("session table full (%d open, cap %d from -max-sessions): close idle sessions or raise the cap", s.maxSessions, s.maxSessions)
}

func (s *Service) state(id string, sess *session) *SessionState {
	return &SessionState{
		Session: id,
		Design:  sess.design,
		Variant: sess.variant.String(),
		Depth:   sess.depth,
		Chain:   sess.chain.Edit,
	}
}

// acquireSession looks up a session and marks it in flight, so the idle
// reaper (reaper.go) never drops a session mid-request. The returned
// release restores the idle clock; callers must invoke it exactly once,
// after dropping sess.mu (defer both, release first — LIFO runs the
// session unlock before the table-level release, so the two mutexes are
// never held together).
func (s *Service) acquireSession(id string) (*session, func(), error) {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		s.mu.Unlock()
		return nil, nil, badRequestf("unknown session %q", id)
	}
	sess.inflight++
	sess.lastUse = s.now()
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		sess.inflight--
		sess.lastUse = s.now()
		s.mu.Unlock()
	}
	return sess, release, nil
}

// EditSpec is one graph edit on the wire; Kind selects which fields apply,
// mirroring bog's edit constructors exactly.
type EditSpec struct {
	Kind  string  `json:"kind"`            // set-fanin | set-op | insert
	Node  int32   `json:"node,omitempty"`  // set-fanin, set-op
	Slot  int32   `json:"slot,omitempty"`  // set-fanin
	To    int32   `json:"to,omitempty"`    // set-fanin (-1 = nil)
	Op    string  `json:"op,omitempty"`    // set-op, insert
	Fanin []int32 `json:"fanin,omitempty"` // insert
}

// parseOp maps the wire op name onto bog's operator alphabet.
func parseOp(name string) (bog.Op, error) {
	ops := []bog.Op{bog.Const0, bog.Const1, bog.Input, bog.RegQ, bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux}
	for _, op := range ops {
		if name == op.String() {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", name)
}

// parseDelta converts one wire edit batch into the bog.Delta that
// RepResult.Edit (and EditKey) consume.
func parseDelta(specs []EditSpec) (bog.Delta, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("edit wants at least one edit")
	}
	delta := make(bog.Delta, 0, len(specs))
	for i, e := range specs {
		switch e.Kind {
		case "set-fanin":
			delta = append(delta, bog.SetFaninEdit(bog.NodeID(e.Node), int(e.Slot), bog.NodeID(e.To)))
		case "set-op":
			op, err := parseOp(e.Op)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", i, err)
			}
			delta = append(delta, bog.SetOpEdit(bog.NodeID(e.Node), op))
		case "insert":
			op, err := parseOp(e.Op)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", i, err)
			}
			if len(e.Fanin) > 3 {
				return nil, fmt.Errorf("edit %d: insert has %d fanins, no operator takes more than 3", i, len(e.Fanin))
			}
			fanin := make([]bog.NodeID, len(e.Fanin))
			for j, f := range e.Fanin {
				fanin[j] = bog.NodeID(f)
			}
			delta = append(delta, bog.InsertEdit(op, fanin...))
		default:
			return nil, fmt.Errorf("edit %d: unknown kind %q (want set-fanin, set-op or insert)", i, e.Kind)
		}
	}
	return delta, nil
}

// SessionEditRequest applies one edit batch — one RepResult.Edit call — to
// the session head.
type SessionEditRequest struct {
	Session string     `json:"session"`
	Edits   []EditSpec `json:"edits"`
}

// SessionEdit advances the session's chain by one delta. The response
// chain is engine.EditKey applied to the previous chain, so the mapping
// between session history and cache identity is exact. A canceled wait
// leaves the session untouched: the chain advances only on a completed
// derivation, and the detached derivation (cancel.go) stays cached for
// the retry.
func (s *Service) SessionEdit(ctx context.Context, req SessionEditRequest) (*SessionState, error) {
	sess, release, err := s.acquireSession(req.Session)
	if err != nil {
		return nil, err
	}
	defer release()
	delta, derr := parseDelta(req.Edits)
	if derr != nil {
		return nil, badRequest(derr)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	head, eerr := sess.head.EditCtx(ctx, delta)
	if eerr != nil {
		return nil, classifyEngineErr(fmt.Errorf("session %s depth %d: %w", req.Session, sess.depth, eerr))
	}
	sess.head = head
	sess.chain = engine.EditKey(sess.chain, delta)
	sess.depth++
	return s.state(req.Session, sess), nil
}

// SessionEvalRequest asks for the session head's verdict at one period.
type SessionEvalRequest struct {
	Session string  `json:"session"`
	Period  float64 `json:"period"`
}

// SessionEvalResponse is the session-head analog of one VariantResult.
type SessionEvalResponse struct {
	State  SessionState  `json:"state"`
	Period float64       `json:"period"`
	Result VariantResult `json:"result"`
}

// SessionEval evaluates the current head without advancing the chain.
func (s *Service) SessionEval(ctx context.Context, req SessionEvalRequest) (*SessionEvalResponse, error) {
	if !(req.Period > 0) || math.IsInf(req.Period, 1) {
		return nil, badRequestf("session eval wants a finite positive period, got %v", req.Period)
	}
	sess, release, err := s.acquireSession(req.Session)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	wns, tns := sess.head.Summary(req.Period)
	return &SessionEvalResponse{
		State:  *s.state(req.Session, sess),
		Period: req.Period,
		Result: VariantResult{
			Variant:       sess.variant.String(),
			WNS:           wns,
			TNS:           tns,
			Endpoints:     len(sess.head.Graph.Endpoints),
			ArrivalSHA256: sess.head.ArrivalSHA256,
		},
	}, nil
}

// SessionClose drops the session; its cache entries stay warm for the next
// client that replays the same chain.
func (s *Service) SessionClose(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return badRequestf("unknown session %q", id)
	}
	if sess.inflight == 0 {
		// Release the derived-entry reference now; with a request still in
		// flight the request's own reference keeps it alive and the table
		// removal below is what matters.
		sess.head = nil
	}
	delete(s.sessions, id)
	return nil
}
