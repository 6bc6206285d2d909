// The chaos harness (the tentpole's acceptance test): mid-build client
// disconnects, slow-body writers, overload bursts, injected worker
// panics, and abandoned sessions, all at once against one daemon — under
// -race in CI, twice (-count=2). The invariants:
//
//   - every surviving (200) response is byte-identical to a serial
//     oracle's answer for the same query;
//   - build and derivation counts are exact — cancellation never
//     re-leads, duplicates, or poisons a single-flight slot;
//   - nothing leaks: in-flight slots drain to zero, live entries match
//     exactly the representations the queries warm, and the session
//     table empties through the TTL reaper.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

// chaosQuery is one stateless request with its oracle answer.
type chaosQuery struct {
	path string
	body []byte // marshaled request
	want []byte // serial oracle's response bytes
}

// buildChaosQueries answers every stateless query once on a private
// serial service and records the bytes every surviving chaos response
// must reproduce.
func buildChaosQueries(t *testing.T, names []string) []chaosQuery {
	t.Helper()
	oracle := newService(t, Config{Jobs: 2})
	srv := httptest.NewServer(oracle.Handler())
	defer srv.Close()

	var queries []chaosQuery
	for _, n := range names {
		ref := DesignRef{Bench: n}
		for _, q := range []struct {
			path string
			body any
		}{
			{"/eval", EvalRequest{Design: ref, Period: 0.45}},
			{"/eval", EvalRequest{Design: ref, Period: 0.8}},
			{"/sweep", SweepRequest{Design: ref, Sweep: "0.3:0.9:4"}},
			{"/fmax", FmaxRequest{Design: ref}},
		} {
			b, err := json.Marshal(q.body)
			if err != nil {
				t.Fatal(err)
			}
			code, want := postJSON(t, srv.Client(), srv.URL+q.path, q.body)
			if code != http.StatusOK {
				t.Fatalf("oracle %s: %d %s", q.path, code, want)
			}
			queries = append(queries, chaosQuery{path: q.path, body: b, want: want})
		}
	}
	return queries
}

// postRaw sends one pre-marshaled body, returning status, Retry-After
// presence and the response bytes. resp errors (client-side cancels) are
// returned as err.
func postRaw(client *http.Client, url string, body io.Reader) (code int, retryAfter bool, respBody []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return 0, false, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header.Get("Retry-After") != "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Retry-After") != "", b, nil
}

// checkSurvivor asserts the surviving-response invariant for one reply:
// 200 must match the oracle bytes, 503 must carry Retry-After; anything
// else is a classification bug.
func checkSurvivor(t *testing.T, phase string, q chaosQuery, code int, retryAfter bool, body []byte) {
	t.Helper()
	switch code {
	case http.StatusOK:
		if !bytes.Equal(body, q.want) {
			t.Errorf("%s %s: surviving response diverged from serial oracle", phase, q.path)
		}
	case http.StatusServiceUnavailable:
		if !retryAfter {
			t.Errorf("%s %s: 503 without Retry-After", phase, q.path)
		}
	default:
		t.Errorf("%s %s: unexpected status %d: %s", phase, q.path, code, body)
	}
}

// slowBody trickles a payload a few bytes at a time: a client on a bad
// link, holding its admission slot through the whole decode.
type slowBody struct {
	data  []byte
	pause time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(s.pause)
	n := 3
	if n > len(s.data) {
		n = len(s.data)
	}
	n = copy(p[:min(n, len(p))], s.data)
	s.data = s.data[n:]
	return n, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDaemonChaosHarness is the required -race -count=2 CI step.
func TestDaemonChaosHarness(t *testing.T) {
	const designN = 2
	names := benchNames(t, designN)
	variants := len(bog.Variants())
	queries := buildChaosQueries(t, names)

	// Session oracle: the edited verdict per design.
	oracleEng := engine.New(1)
	deltas := make(map[string][]EditSpec)
	wantEdit := make(map[string]VariantResult)
	for _, n := range names {
		src := designs.Generate(mustSpec(t, n))
		reps, err := BuildSweepReps(context.Background(), oracleEng, n, src)
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
		wantEdit[n] = VariantResult{
			Variant: "SOG", WNS: r.WNS, TNS: r.TNS,
			Endpoints:     len(edited.Graph.Endpoints),
			ArrivalSHA256: engine.ArrivalDigest(edited.Arrival),
		}
	}

	// The daemon under chaos: a tight admission gate (shedding is part of
	// the test), a generous safety-net deadline, and fast TTL reaping. No
	// memory budget: with eviction off, the exact-build-count assertion
	// isolates cancellation as the only possible source of re-builds.
	svc := newService(t, Config{
		Jobs:           4,
		MaxInflight:    3,
		QueueWait:      5 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
		MaxSessions:    64,
		SessionTTL:     250 * time.Millisecond,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Phase A — overload burst: 16 clients slam the cold daemon at once
	// through a 3-slot gate. Survivors are served (and must match the
	// oracle), the rest are shed 503. The test holds every gate slot while
	// the burst starts and lets go once the gate has shed a request, so
	// the burst sheds by construction: left alone, 16 clients can drain
	// through 3 slots within the 5 ms queue grace.
	for range cap(svc.gate.slots) {
		svc.gate.slots <- struct{}{}
	}
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queries[c%len(queries)]
			code, ra, body, err := postRaw(srv.Client(), srv.URL+q.path, bytes.NewReader(q.body))
			if err != nil {
				t.Errorf("burst client %d: %v", c, err)
				return
			}
			checkSurvivor(t, "burst", q, code, ra, body)
		}(c)
	}
	for held := time.Now().Add(10 * time.Second); svc.shed.Load() == 0 && time.Now().Before(held); {
		time.Sleep(time.Millisecond)
	}
	for range cap(svc.gate.slots) {
		svc.gate.release()
	}
	wg.Wait()

	// Phase B — mixed storm: well-behaved clients, mid-request
	// disconnectors, slow-body writers, session abandoners, and an
	// injector panicking tasks on the shared worker pool.
	var panicsInjected atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // panic injector
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := svc.Engine().ForEachErr(4, func(i int) error {
				if i == 1 {
					panic(fmt.Sprintf("chaos: injected worker panic %d", panicsInjected.Load()))
				}
				return nil
			})
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Errorf("injected panic came back as %v, want *PanicError", err)
				return
			}
			panicsInjected.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for c := 0; c < 4; c++ { // well-behaved clients
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 2*len(queries); k++ {
				q := queries[(k+c)%len(queries)]
				code, ra, body, err := postRaw(srv.Client(), srv.URL+q.path, bytes.NewReader(q.body))
				if err != nil {
					t.Errorf("storm client %d: %v", c, err)
					return
				}
				checkSurvivor(t, "storm", q, code, ra, body)
			}
		}(c)
	}
	for c := 0; c < 4; c++ { // disconnectors: hang up mid-request
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < len(queries); k++ {
				q := queries[(k+c)%len(queries)]
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(200+300*k)*time.Microsecond)
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+q.path, bytes.NewReader(q.body))
				req.Header.Set("Content-Type", "application/json")
				if resp, err := srv.Client().Do(req); err == nil {
					// Too fast to cancel: still must be a valid survivor.
					b, rerr := io.ReadAll(resp.Body)
					if rerr == nil {
						checkSurvivor(t, "disconnect", q, resp.StatusCode, resp.Header.Get("Retry-After") != "", b)
					}
					resp.Body.Close()
				}
				cancel()
			}
		}(c)
	}
	for c := 0; c < 2; c++ { // slow-body writers
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queries[c%len(queries)]
			code, ra, body, err := postRaw(srv.Client(), srv.URL+q.path, &slowBody{data: q.body, pause: 2 * time.Millisecond})
			if err != nil {
				t.Errorf("slow writer %d: %v", c, err)
				return
			}
			checkSurvivor(t, "slow", q, code, ra, body)
		}(c)
	}
	for c := 0; c < 3; c++ { // session abandoners: open, edit, vanish
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := names[c%len(names)]
			b, _ := json.Marshal(SessionOpenRequest{Design: DesignRef{Bench: n}, Variant: "SOG"})
			code, _, body, err := postRaw(srv.Client(), srv.URL+"/session/open", bytes.NewReader(b))
			if err != nil || code != http.StatusOK {
				return // shed or canceled: abandoning is the job anyway
			}
			var st SessionState
			if json.Unmarshal(body, &st) != nil {
				return
			}
			b, _ = json.Marshal(SessionEditRequest{Session: st.Session, Edits: deltas[n]})
			postRaw(srv.Client(), srv.URL+"/session/edit", bytes.NewReader(b)) //nolint:errcheck
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Phase C — clean pass: one serial client; with the storm over, every
	// query must be served and byte-identical, and the full session round
	// trip must match the oracle verdict exactly.
	for _, q := range queries {
		code, _, body, err := postRaw(srv.Client(), srv.URL+q.path, bytes.NewReader(q.body))
		if err != nil || code != http.StatusOK {
			t.Fatalf("clean pass %s: %d %v %s", q.path, code, err, body)
		}
		if !bytes.Equal(body, q.want) {
			t.Fatalf("clean pass %s: response diverged from serial oracle after chaos", q.path)
		}
	}
	for _, n := range names {
		st, err := svc.SessionOpen(context.Background(), SessionOpenRequest{Design: DesignRef{Bench: n}, Variant: "SOG"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SessionEdit(context.Background(), SessionEditRequest{Session: st.Session, Edits: deltas[n]}); err != nil {
			t.Fatal(err)
		}
		ev, err := svc.SessionEval(context.Background(), SessionEvalRequest{Session: st.Session, Period: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		want := wantEdit[n]
		if math.Float64bits(ev.Result.WNS) != math.Float64bits(want.WNS) ||
			math.Float64bits(ev.Result.TNS) != math.Float64bits(want.TNS) ||
			ev.Result.ArrivalSHA256 != want.ArrivalSHA256 {
			t.Fatalf("clean pass session verdict diverged from oracle for %s", n)
		}
		if err := svc.SessionClose(st.Session); err != nil {
			t.Fatal(err)
		}
	}

	// The books must balance exactly.
	st := svc.Engine().Stats()
	if want := int64(designN * variants); st.Builds != want {
		t.Fatalf("builds = %d, want exactly %d: cancellation re-led or poisoned a slot", st.Builds, want)
	}
	if st.Edits != int64(designN) {
		t.Fatalf("edits = %d, want exactly %d (one derivation per design)", st.Edits, designN)
	}
	if st.Panics != panicsInjected.Load() {
		t.Fatalf("panics = %d, want the %d injected", st.Panics, panicsInjected.Load())
	}
	if svc.Stats().Shed == 0 {
		t.Fatal("the burst shed nothing: the admission gate never engaged")
	}

	// No leaks: in-flight slots drain, live entries are exactly the warmed
	// representations (4 bases + 1 derived per design), and the TTL reaper
	// empties the session table.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live, pending := svc.Engine().Entries()
		sessions := svc.Stats().Sessions
		if pending == 0 && live == designN*(variants+1) && sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: live=%d (want %d) pending=%d (want 0) sessions=%d (want 0)",
				live, designN*(variants+1), pending, sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestDeadline is the deadline-storm companion: with a deadline no
// cold build can meet, every stormer gets 504 — while the builds finish
// detached, settle exactly once, and serve identical bytes afterwards.
func TestRequestDeadline(t *testing.T) {
	// The largest benchmark design: its cold build takes tens of
	// milliseconds, so a 1ms deadline can never be beaten by the build
	// even on a fast machine without -race.
	const name = "Rocket3"
	variants := len(bog.Variants())

	oracle := newService(t, Config{Jobs: 2})
	oracleSrv := httptest.NewServer(oracle.Handler())
	defer oracleSrv.Close()
	req := EvalRequest{Design: DesignRef{Bench: name}, Period: 0.5}
	code, want := postJSON(t, oracleSrv.Client(), oracleSrv.URL+"/eval", req)
	if code != http.StatusOK {
		t.Fatalf("oracle: %d %s", code, want)
	}

	// The gate is wide open (16 slots for 8 stormers) so every stormer
	// reaches the engine and the deadline — not admission — is what fails.
	svc := newService(t, Config{Jobs: 2, MaxInflight: 16, RequestTimeout: time.Millisecond})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var expired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postJSON(t, srv.Client(), srv.URL+"/eval", req)
			switch code {
			case http.StatusGatewayTimeout:
				expired.Add(1)
			case http.StatusOK:
				// A machine fast enough to build inside 1ms: legal, rare.
			default:
				t.Errorf("deadline storm: status %d", code)
			}
		}()
	}
	wg.Wait()
	if expired.Load() == 0 {
		t.Fatal("no stormer hit the deadline")
	}

	// Retry through the same 1ms-deadline daemon. The builds the stormers
	// abandoned complete detached, and each retry finds more variants warm
	// (a resolved slot ignores a dead context) and leads at least one more
	// cold one — fail-fast fan-out leads later variants on later tries. So
	// within variants+1 attempts everything is warm and the daemon answers,
	// byte-identical to the no-deadline oracle.
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, pending := svc.Engine().Entries(); pending == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("detached builds never settled")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var body []byte
	for attempt := 0; attempt <= variants; attempt++ {
		settle()
		if code, body = postJSON(t, srv.Client(), srv.URL+"/eval", req); code == http.StatusOK {
			break
		}
	}
	if code != http.StatusOK {
		t.Fatalf("query never warmed through the deadline daemon: %d %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("post-deadline-storm response diverged from the oracle")
	}

	// The books balance exactly: expired waits were counted, and no
	// expired wait ever re-led or duplicated a build.
	st := svc.Engine().Stats()
	if st.DeadlineExpired == 0 {
		t.Fatalf("stats %+v: deadline expiries not counted", st)
	}
	if st.Builds != int64(variants) {
		t.Fatalf("builds = %d, want exactly %d (expired waits must not re-lead)", st.Builds, variants)
	}
}
