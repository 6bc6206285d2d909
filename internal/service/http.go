// The HTTP JSON surface over Service: one handler per endpoint, POST
// bodies decoded strictly (unknown fields rejected — a typo'd field name
// silently ignored would make a query mean something other than what the
// client wrote — and so is anything but whitespace after the one JSON
// value, which would otherwise be a second query answered as the first),
// responses encoded from the typed payloads in service.go.
// Living here rather than in cmd/rtltimerd keeps the whole wire surface
// testable through httptest without spawning a process.
//
// Failures are classified, not flattened: client mistakes (decode,
// validation, unknown session) are 400, a body past the 64 MiB cap is
// 413, internal faults (contained panics, unexpected errors) are 500,
// shed load is 503 with Retry-After, an expired request deadline is 504,
// and a client that hung up gets the nginx-style 499 — the status nobody
// reads but the access log keeps honest. GET /healthz answers liveness, GET /readyz readiness.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"rtltimer/internal/engine"
)

// maxRequestBody bounds request bodies (inline Verilog sources included):
// the daemon serves trusted engineering clients, but an accidental
// multi-gigabyte POST must not take the resident engine down with it. A
// longer body is refused whole with a 413, never decoded as its prefix.
const maxRequestBody = 64 << 20

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client canceled before the response; nobody is listening,
// but the access log should distinguish this from server faults.
const statusClientClosedRequest = 499

// statusError pins an HTTP status to an error. Service methods wrap their
// client-mistake errors with badRequest*, the admission gate carries 503,
// and everything unwrapped defaults to 500 — misclassifying an internal
// fault as the client's is the bug this layer exists to fix.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// badRequest marks err as a client mistake (HTTP 400); nil stays nil.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &statusError{code: http.StatusBadRequest, err: err}
}

func badRequestf(format string, args ...any) error {
	return &statusError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// classifyEngineErr classifies an error that came back through the engine:
// a contained panic is an internal fault (500), a context error passes
// through for errorStatus to map (499/504), and anything else is the
// query's own fault — an unbuildable source, an invalid delta — and stays
// a 400.
func classifyEngineErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		return &statusError{code: http.StatusInternalServerError, err: err}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return badRequest(err)
}

// errorStatus maps a classified error to its HTTP status. Unclassified
// errors are 500: an error nobody labeled is an internal fault by
// definition.
func errorStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// Handler returns the daemon's HTTP mux. Every POST endpoint sits behind
// the admission gate and the per-request deadline; the GET endpoints
// (stats, health) bypass both — an operator diagnosing an overloaded
// daemon must not be shed by the very overload being diagnosed.
func (s *Service) Handler() http.Handler {
	work := func(h http.HandlerFunc) http.Handler {
		return s.withDeadline(s.admitted(h))
	}
	mux := http.NewServeMux()
	mux.Handle("/eval", work(post(s, (*Service).Eval)))
	mux.Handle("/sweep", work(post(s, (*Service).Sweep)))
	mux.Handle("/fmax", work(post(s, (*Service).Fmax)))
	mux.Handle("/annotate", work(post(s, (*Service).Annotate)))
	mux.Handle("/session/open", work(post(s, (*Service).SessionOpen)))
	mux.Handle("/session/edit", work(post(s, (*Service).SessionEdit)))
	mux.Handle("/session/eval", work(post(s, (*Service).SessionEval)))
	mux.Handle("/session/close", work(post(s, func(s *Service, _ context.Context, req struct {
		Session string `json:"session"`
	}) (*struct {
		Closed string `json:"closed"`
	}, error) {
		if err := s.SessionClose(req.Session); err != nil {
			return nil, err
		}
		return &struct {
			Closed string `json:"closed"`
		}{Closed: req.Session}, nil
	})))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("stats wants GET"))
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("healthz wants GET"))
			return
		}
		// Liveness: the process answers. Anything deeper belongs in readyz.
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("readyz wants GET"))
			return
		}
		// Readiness: the engine is constructed and, when the daemon was
		// configured with -model, the model finished loading. Both hold by
		// construction once New returned, so readiness flips with the
		// listener — but health checkers want the endpoint, not the proof.
		if s.eng == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("engine not constructed"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true, "model": s.model != nil})
	})
	return mux
}

// admitted wraps a handler behind the admission gate: acquire a slot (or
// wait out the queue grace), serve, release. Shed requests get 503 with
// Retry-After and count in /stats shed; a request canceled while queued
// gets its own context error, not a shed.
func (s *Service) admitted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := s.gate.acquire(r.Context()); err != nil {
			if errors.Is(err, errShedLoad) {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, errorStatus(err), err)
			return
		}
		defer s.gate.release()
		h.ServeHTTP(w, r)
	})
}

// withDeadline applies the configured per-request deadline to the request
// context. With no deadline configured it is free: the handler is
// returned unchanged.
func (s *Service) withDeadline(h http.Handler) http.Handler {
	if s.requestTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// errorResponse is the uniform failure payload.
type errorResponse struct {
	Error string `json:"error"`
}

// post adapts one typed request/response method into an http.HandlerFunc,
// passing the request context through so deadlines and client disconnects
// reach the engine's cancelable waits. Errors map through errorStatus; a
// decode failure is the client's 400 unless the context died first — a
// body cut off by the deadline or a hangup is not a malformed request —
// or the body ran past maxRequestBody, which is a 413 wherever the
// decoder stood when it hit the cap.
func post[Req any, Resp any](s *Service, fn func(*Service, context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("wants POST"))
			return
		}
		var req Req
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxRequestBody), &req); err != nil {
			if ctxErr := r.Context().Err(); ctxErr != nil {
				writeError(w, errorStatus(ctxErr), ctxErr)
				return
			}
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d MiB limit", maxRequestBody>>20))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		resp, err := fn(s, r.Context(), req)
		if err != nil {
			writeError(w, errorStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields are an error, and so is any non-whitespace byte after the value.
// The rest of the body is scanned, not decoded: what the decoder buffered
// past the value, then r itself, one fixed-size chunk at a time, failing
// at the first byte that is not JSON whitespace. Decoding it instead would
// keep every whitespace byte buffered until the next token, so a value
// followed by 64 MiB of spaces would cost a buffer twice that size. A
// read error (a body past the cap, a hangup) is wrapped, not replaced.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	chunk := trailingChunks.Get().(*[4 << 10]byte)
	defer trailingChunks.Put(chunk)
	for _, rest := range [...]io.Reader{dec.Buffered(), r} {
		for {
			n, err := rest.Read(chunk[:])
			for _, c := range chunk[:n] {
				if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
					return fmt.Errorf("trailing data after the JSON value: %q", c)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("trailing data after the JSON value: %w", err)
			}
		}
	}
	return nil
}

// trailingChunks recycles the chunks decodeStrict scans with, so a
// request does not allocate one.
var trailingChunks = sync.Pool{New: func() any { return new([4 << 10]byte) }}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// writeJSON encodes one response. Encoding a payload we built cannot fail
// structurally; a mid-write network error leaves nothing to salvage, so
// the error is deliberately dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
