// Command unstencil-coordinator fronts a cluster of unstencild shards: it
// fans uploaded meshes out to every shard, routes queries and jobs by
// consistent hash, distributes per-element jobs as patch ranges of the
// deterministic tiling, and merges the shards' partial solutions in
// ascending patch order — bit-identical to a single-process run at full
// coverage. When a shard stays down past the retry and failover budget,
// allow_partial jobs complete degraded with honest coverage accounting;
// jobs without it fail with a typed shard-failure error.
//
// Usage:
//
//	unstencild -addr :9091 -state-dir /var/lib/unstencil/s1 &
//	unstencild -addr :9092 -state-dir /var/lib/unstencil/s2 &
//	unstencil-coordinator -addr :8080 \
//	    -shards http://localhost:9091,http://localhost:9092
//
// The coordinator serves the same public API as a single unstencild — the
// same handlers (meshes, jobs including DELETE to cancel, queries, health,
// metrics) — so clients need not know they are talking to a cluster. Job
// ids survive a coordinator restart:
//
//	job-<epoch>-00000001   distributed (per-element) job, run by this
//	                       coordinator; 404 after it restarts
//	s1-job-<epoch>-00000007  routed job: shard 1 of -shards, then that
//	                       shard's own id; resolves on any coordinator
//	                       over the same -shards list
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unstencil/internal/cluster"
	"unstencil/internal/fault"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		shardsFlag      = flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://h1:9090,http://h2:9090")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "cap on each attempt of a shard request without a deadline of its own (status, result, job list, mesh upload, routed submit, query); patch ranges run under the job deadline")
		hedgeDelay      = flag.Duration("hedge-delay", 0, "hedged-read delay for /v1/query; the hedge counts against -failover-attempts; 0 disables hedging")
		retryN          = flag.Int("retry-attempts", 3, "tries per shard request for transport failures and 5xx, a patch range only if it never ran (1 = no retry)")
		retryBase       = flag.Duration("retry-base", 25*time.Millisecond, "backoff before the first retry (doubles per retry)")
		retryMax        = flag.Duration("retry-max", 1*time.Second, "backoff cap; a shard's Retry-After overrides the backoff")
		failover        = flag.Int("failover-attempts", 1, "ring successors a failed patch range, routed job or query may move to; negative disables failover (degraded-mode drills)")
		healthInterval  = flag.Duration("health-interval", time.Second, "shard /readyz polling period")
		healthThreshold = flag.Int("health-threshold", 3, "consecutive probe failures before a shard is marked down")
		blocks          = flag.Int("blocks", 16, "default blocks/patches for jobs that omit it")
		jobTimeout      = flag.Duration("job-timeout", 5*time.Minute, "distributed-job end-to-end cap")
		jobConcurrency  = flag.Int("job-concurrency", 4, "concurrently executing distributed jobs")
		maxBodyMB       = flag.Int64("max-body-mb", 32, "request body limit in MiB")
		faultSpec       = flag.String("fault-spec", "", "enable deterministic fault injection, e.g. seed=42,mode=error,sites=cluster.route:0.05 (testing only)")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *shardsFlag == "" {
		fmt.Fprintln(os.Stderr, "unstencil-coordinator: -shards is required")
		os.Exit(2)
	}
	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, strings.TrimRight(s, "/"))
		}
	}
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unstencil-coordinator: -fault-spec:", err)
			os.Exit(2)
		}
		if err := fault.Enable(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "unstencil-coordinator: -fault-spec:", err)
			os.Exit(2)
		}
		log.Warn("fault injection enabled; this build is intentionally unreliable", "spec", *faultSpec)
	}

	co, err := cluster.New(cluster.Config{
		Shards:         shards,
		RequestTimeout: *requestTimeout,
		HedgeDelay:     *hedgeDelay,
		Retry: fault.Policy{
			Attempts: *retryN,
			Base:     *retryBase,
			Max:      *retryMax,
		},
		FailoverAttempts: *failover,
		HealthInterval:   *healthInterval,
		HealthThreshold:  *healthThreshold,
		DefaultBlocks:    *blocks,
		JobTimeout:       *jobTimeout,
		JobConcurrency:   *jobConcurrency,
		MaxBodyBytes:     *maxBodyMB << 20,
		Log:              log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unstencil-coordinator:", err)
		os.Exit(1)
	}
	co.Start()
	defer co.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           co,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Info("unstencil-coordinator listening", "addr", *addr, "shards", shards)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Info("shutting down", "signal", sig.String())
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "unstencil-coordinator:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
}
