// Command rtltimerd is the resident timing service (ROADMAP item 1): one
// engine.Engine held warm for the life of the process, answering
// frequency-exploration and what-if queries over HTTP JSON without paying
// a bit-blast per call. Where the one-shot rtltimer CLI rebuilds (or
// reloads from -cache-dir) its representations every invocation, the
// daemon pays the build once and serves every subsequent query — a sweep,
// an fmax search, an edit-chain what-if — from the period-free arrival
// vectors already in memory.
//
// Endpoints (POST JSON unless noted):
//
//	/eval          single-period WNS/TNS per BOG variant
//	/sweep         WNS/TNS-vs-period curve; "text" is byte-identical to
//	               `rtltimer -sweep` for the same design
//	/fmax          binary-searched maximum frequency; "text" matches
//	               `rtltimer -fmax`
//	/annotate      model-predicted slack annotations (requires -model)
//	/session/open  open an edit session on one (design, variant)
//	/session/edit  apply one edit batch (maps 1:1 onto RepResult.Edit)
//	/session/eval  evaluate the session head at a period
//	/session/close drop the session
//	/stats         GET: engine counters, resident-memory accounting
//	/healthz       GET: liveness (the process answers)
//	/readyz        GET: readiness (engine constructed, model loaded if set)
//
// Determinism: every response is bit-identical to the same query against a
// fresh process or the one-shot CLI — the engine's standing contract,
// surfaced over HTTP. -mem-budget bounds the resident memory tier with
// deterministic least-recently-touched eviction; evicted entries reload
// from -cache-dir or rebuild, never changing a result.
//
// Survivability: -max-inflight bounds admitted POST requests (excess load
// is shed with 503 + Retry-After after -queue-wait), -request-timeout puts
// a deadline on every request (a canceled or expired wait never aborts or
// duplicates the underlying build — it finishes detached and stays
// cached), -max-sessions caps the session table, and -session-ttl reaps
// idle sessions. Worker and build panics are contained per query; the
// daemon keeps serving.
//
// Usage:
//
//	rtltimerd [-listen 127.0.0.1:8723] [-jobs N]
//	          [-cache-dir .cache] [-mem-budget 256M]
//	          [-model model.bin] [-seed 1]
//	          [-max-inflight N] [-queue-wait 500ms] [-request-timeout 0]
//	          [-max-sessions 1024] [-session-ttl 1h]
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rtltimer/internal/engine"
	"rtltimer/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtltimerd: ")
	listen := flag.String("listen", "127.0.0.1:8723", "address to serve on")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent evaluation workers (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "persistent representation cache directory (empty = memory only)")
	memBudget := flag.String("mem-budget", "", "approximate resident bytes for the memory tier, e.g. 256M (empty = unlimited)")
	modelPath := flag.String("model", "", "saved model file enabling /annotate (train with rtltimer -save-model)")
	seed := flag.Int64("seed", 1, "model/dataset seed for /annotate builds")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted requests (0 = 2x jobs); excess sheds with 503")
	queueWait := flag.Duration("queue-wait", 500*time.Millisecond, "how long an excess request may wait for an admission slot before 503")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline (0 = unlimited); expired waits get 504, builds finish detached")
	maxSessions := flag.Int("max-sessions", 1024, "max open edit sessions (0 = unlimited)")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "reap sessions idle this long (0 = never)")
	flag.Parse()

	cfg := service.Config{
		Jobs:           *jobs,
		CacheDir:       *cacheDir,
		ModelPath:      *modelPath,
		Seed:           *seed,
		MaxInflight:    *maxInflight,
		QueueWait:      *queueWait,
		RequestTimeout: *requestTimeout,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
	}
	if *memBudget != "" {
		b, err := engine.ParseSizeBudget(*memBudget)
		if err != nil {
			log.Fatalf("-mem-budget: %v", err)
		}
		cfg.MemBudget = b
	}
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: in-flight queries finish, then the cache counters
	// are logged so an operator sees what the resident run amortized.
	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(done)
	}()

	log.Printf("serving on http://%s (jobs=%d cache=%q budget=%d)",
		*listen, *jobs, *cacheDir, cfg.MemBudget)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	svc.Close()
	st := svc.Stats()
	log.Printf("served: %d builds, %d memory hits, %d disk hits, %d edits, %d evictions, %d shed, %d canceled, %d expired, %d panics contained; resident %d/%d bytes",
		st.Stats.Builds, st.Stats.Hits, st.Stats.DiskHits, st.Stats.Edits, st.Stats.Evictions,
		st.Shed, st.Stats.Canceled, st.Stats.DeadlineExpired, st.Stats.Panics,
		st.MemUsed, st.MemBudget)
}
