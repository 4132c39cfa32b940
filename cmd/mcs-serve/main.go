// Command mcs-serve runs the paper's analyses as a long-running HTTP/JSON
// service with content-addressed result caching, bounded-concurrency
// admission control, and Prometheus-style metrics.
//
// Usage:
//
//	mcs-serve [flags]
//
//	-addr string            listen address (default "127.0.0.1:8080";
//	                        use port 0 for an ephemeral port)
//	-inflight int           max concurrently computed analyses
//	                        (default GOMAXPROCS; cache hits bypass this)
//	-admission-wait dur     how long a request waits for a free slot
//	                        before 429 (default 100ms)
//	-timeout dur            per-request deadline (default 30s)
//	-cache int              result-cache capacity in entries (default 1024)
//	-max-body int           request-body cap in bytes; larger bodies get
//	                        413 (default 8 MiB)
//	-max-sim-horizon int    /v1/simulate horizon cap in ticks (default 2e6)
//	-max-batch int          max task sets per /v1/batch request (default 256)
//	-max-sessions int       live /v1/session cap, LRU-evicted (default 64)
//	-drain dur              graceful-shutdown drain budget (default 10s)
//	-drain-grace dur        delay between /readyz going 503 and the
//	                        listener closing, so load balancers observe
//	                        the flip before connections are refused
//	                        (default 0)
//	-pprof string           serve net/http/pprof on this extra LOOPBACK
//	                        address (e.g. 127.0.0.1:6060); empty = off.
//	                        Refused for non-loopback addresses; the
//	                        profiling handlers never join the public mux.
//
// Endpoints: POST /v1/analyze, /v1/batch, /v1/session, /v1/speedup,
// /v1/reset, /v1/simulate, /v1/fleet; GET /healthz, /readyz, /metrics.
// See internal/server for the request formats and docs/SERVING.md for
// the serving design.
//
// On SIGINT/SIGTERM the server flips /readyz to 503, waits the
// -drain-grace, then stops accepting connections and drains in-flight
// requests for up to the -drain budget before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on http.DefaultServeMux only
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcspeedup/internal/server"
	"mcspeedup/internal/task"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-serve: ")
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
		inflight      = flag.Int("inflight", 0, "max concurrently computed analyses (0 = GOMAXPROCS)")
		admissionWait = flag.Duration("admission-wait", 100*time.Millisecond, "wait for a free slot before 429")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		cacheEntries  = flag.Int("cache", 1024, "result-cache capacity in entries")
		maxBody       = flag.Int64("max-body", 8<<20, "request-body cap in bytes")
		maxSimHorizon = flag.Int64("max-sim-horizon", 2_000_000, "simulate-horizon cap in ticks")
		maxBatch      = flag.Int("max-batch", 256, "max task sets per /v1/batch request")
		maxSessions   = flag.Int("max-sessions", 64, "max live /v1/session sessions (LRU-evicted beyond)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		drainGrace    = flag.Duration("drain-grace", 0, "delay between /readyz flipping 503 and the listener closing")
		pprofAddr     = flag.String("pprof", "", "serve /debug/pprof on this extra loopback address (empty = off)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		pln, err := startPprof(*pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer pln.Close()
		log.Printf("pprof listening on http://%s (loopback only)", pln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	svc := server.New(server.Config{
		MaxInFlight:    *inflight,
		AdmissionWait:  *admissionWait,
		RequestTimeout: *timeout,
		CacheEntries:   *cacheEntries,
		MaxBodyBytes:   *maxBody,
		MaxSimHorizon:  task.Time(*maxSimHorizon),
		MaxBatchItems:  *maxBatch,
		MaxSessions:    *maxSessions,
	})
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// The handler enforces its own per-request deadline; these bound
		// pathological clients.
		ReadTimeout:  *timeout + 10*time.Second,
		WriteTimeout: *timeout + 10*time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	// The "listening on" line is the startup handshake scripts parse
	// (scripts/verify.sh, server_e2e_test.go); keep its shape stable.
	log.Printf("listening on http://%s", ln.Addr().String())
	svc.SetReady()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		// Serve never returns nil; any return without a signal is fatal.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Flip /readyz to 503 first and give load balancers -drain-grace to
	// notice before the listener stops accepting.
	svc.BeginDrain()
	if *drainGrace > 0 {
		log.Printf("shutting down: readiness dropped, holding %v before closing the listener", *drainGrace)
		time.Sleep(*drainGrace)
	}
	log.Printf("shutting down: draining in-flight requests (up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("forced shutdown: %v", err)
		srv.Close()
		os.Exit(1)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("drained; bye")
}

// startPprof serves the net/http/pprof handlers — which the blank import
// above registered on http.DefaultServeMux, NOT on the service mux that
// server.New builds — on their own listener. The address must be a
// loopback address: profiling exposes heap contents and symbol names, so
// a stray flag value must not be able to put it on a public interface.
func startPprof(addr string) (net.Listener, error) {
	if err := requireLoopback(addr); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return ln, nil
}

// requireLoopback rejects any host:port whose host is not a loopback
// address. An empty host ("":6060) would bind every interface, so it is
// rejected too.
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof address %q: %v", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("-pprof address %q is not loopback-only; refusing to expose profiling", addr)
	}
	return nil
}
