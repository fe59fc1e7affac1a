// Command unstencild runs the resident SIAC post-processing service: an
// HTTP/JSON API over the paper's per-point and per-element evaluation
// schemes with a bounded job queue, a worker pool, and an LRU artifact
// cache that keeps meshes, projected dG fields, SIAC kernel tables and
// tilings warm across requests.
//
// Usage:
//
//	unstencild -addr :8080 -workers 4 -queue 128 -cache-mb 256
//
// Example session:
//
//	curl -sX POST --data-binary @mesh.json localhost:8080/v1/meshes
//	curl -sX POST -d '{"mesh_id":"<id>","scheme":"per-element","p":2}' localhost:8080/v1/jobs
//	    # -> {"id":"job-<epoch>-00000001",...}; the epoch is fixed per process
//	    # start, so ids never repeat across restarts
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/result    # {"solutions":[[...]]}, one per field
//	curl -sX DELETE localhost:8080/v1/jobs/<id>     # cancel
//	curl -s localhost:8080/debug/metrics
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener stops accepting,
// queued and running jobs drain (up to -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "job worker pool size")
		queue        = flag.Int("queue", 64, "bounded job queue capacity")
		cacheMB      = flag.Int64("cache-mb", 256, "artifact cache budget in MiB")
		maxBodyMB    = flag.Int64("max-body-mb", 32, "request body limit in MiB")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job evaluation cap")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain window")
		blocks       = flag.Int("blocks", 16, "default blocks/patches for jobs that omit it")
		evalWorkers  = flag.Int("eval-workers", 0, "per-evaluation concurrency (0 = GOMAXPROCS)")
		stateDir     = flag.String("state-dir", "", "directory for the job journal; empty disables crash recovery")
		storeDir     = flag.String("store-dir", "", "directory for the persistent artifact store (meshes, assembled operators); defaults to <state-dir>/store when -state-dir is set, so journal replay re-uses disk-resident artifacts; set alone it enables persistence without journaling")
		retryN       = flag.Int("retry-attempts", 1, "tries per tile/block and per artifact build for transient failures (1 = no retry)")
		retryBase    = flag.Duration("retry-base", 10*time.Millisecond, "backoff before the first retry (doubles per retry)")
		retryMax     = flag.Duration("retry-max", 500*time.Millisecond, "backoff cap")
		faultSpec    = flag.String("fault-spec", "", "enable deterministic fault injection, e.g. seed=42,mode=mixed,sites=core.tile:0.01 (testing only)")
		debugAddr    = flag.String("debug-addr", "", "separate listen address for net/http/pprof and expvar (e.g. localhost:6060); empty disables")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unstencild: -fault-spec:", err)
			os.Exit(2)
		}
		if err := fault.Enable(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "unstencild: -fault-spec:", err)
			os.Exit(2)
		}
		log.Warn("fault injection enabled; this build is intentionally unreliable", "spec", *faultSpec)
	}
	srv, err := server.New(server.Config{
		Workers:       *workers,
		QueueSize:     *queue,
		CacheBytes:    *cacheMB << 20,
		MaxBodyBytes:  *maxBodyMB << 20,
		JobTimeout:    *jobTimeout,
		DefaultBlocks: *blocks,
		EvalWorkers:   *evalWorkers,
		StateDir:      *stateDir,
		StoreDir:      *storeDir,
		Retry: fault.Policy{
			Attempts: *retryN,
			Base:     *retryBase,
			Max:      *retryMax,
		},
		Log: log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unstencild:", err)
		os.Exit(1)
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Profiling/introspection stays off the service listener so production
	// traffic policies (auth, body limits) never apply to it and it can be
	// bound to loopback only.
	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Info("debug listener (pprof, expvar)", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Warn("debug listener", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Info("unstencild listening", "addr", *addr, "workers", *workers, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		log.Info("shutting down", "signal", sig.String())
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "unstencild:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Warn("debug shutdown", "err", err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if err := srv.Manager().Shutdown(ctx); err != nil {
		log.Warn("job drain incomplete; in-flight jobs cancelled", "err", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}
