package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/metrics"
)

// SiteRoute fires at the top of every shard request attempt, so a
// -fault-spec campaign on the coordinator deterministically exercises the
// retry, failover and degradation paths without touching the shards.
const SiteRoute = "cluster.route"

// MaxRetryAfter caps how long the client honors a shard's Retry-After
// header. The shard derives the value from its observed service time, so
// it is normally small; the cap bounds the damage of a pathological
// advertisement.
const MaxRetryAfter = 5 * time.Second

// ErrorKindShardFailure tags job errors caused by a shard staying down
// past its retry and failover budget, so clients can distinguish "your
// request was wrong" from "the cluster lost capacity".
const ErrorKindShardFailure = "shard-failure"

// ShardError means one shard exhausted the client's retry budget. It is
// the unit the router reacts to: fail over to a ring successor, or — past
// the failover budget — degrade or fail the job with ErrorKindShardFailure.
type ShardError struct {
	Shard    string
	Status   int // last HTTP status; 0 for a transport-level failure
	Attempts int
	Err      error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %s failed after %d attempt(s) (last status %d): %v",
		e.Shard, e.Attempts, e.Status, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// ErrorKind is what a job or response failing on e reports as error_kind.
func (e *ShardError) ErrorKind() string { return ErrorKindShardFailure }

// remoteError is a non-2xx shard response. A 5xx is transient: the client
// retries it, after the shard's Retry-After estimate when it sent one. A
// 4xx is permanent: the request itself is wrong, or the resource absent.
type remoteError struct {
	status     int
	msg        string
	retryAfter time.Duration // 0 when the header was absent
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.status, e.msg)
}

// RetryAfter is the shard's own estimate of when to retry, which
// fault.Retry waits instead of its backoff.
func (e *remoteError) RetryAfter() time.Duration { return e.retryAfter }

// RemoteStatus returns the HTTP status a shard answered err with (0 for a
// failure without a response). For mesh-scoped requests a 404 is "mesh not
// resident", the coordinator's cue to re-seed the shard and retry.
func RemoteStatus(err error) int {
	var re *remoteError
	if errors.As(err, &re) {
		return re.status
	}
	return 0
}

// Client is the coordinator's HTTP client for one shard request with
// retries: transport errors and 5xx responses retry with capped
// exponential backoff and deterministic jitter; a 503 carrying Retry-After
// honors the shard's own estimate instead of the blind backoff; 4xx
// responses are permanent. The retry budget is per shard — cross-shard
// failover is the router's job, not the client's.
type Client struct {
	hc       *http.Client
	retry    fault.Policy
	counters *metrics.ClusterCounters
	log      *slog.Logger
}

// NewClient builds a client over hc.
func NewClient(hc *http.Client, retry fault.Policy, counters *metrics.ClusterCounters, log *slog.Logger) *Client {
	return &Client{hc: hc, retry: retry, counters: counters, log: log}
}

// Do sends one logical request to shard+path under the retry policy and
// decodes the JSON response into out (nil discards it; a *[]byte keeps the
// body verbatim). Its backoff is
// keyed by shard+path, so concurrent retries against one shard
// de-synchronize identically on every run.
func (c *Client) Do(ctx context.Context, method, shard, path string, body []byte, out any) error {
	lastStatus := 0
	n, err := fault.Retry(ctx, c.retry, hash64(shard+path), retryable,
		func(last error) {
			c.counters.Retries.Add(1)
			var re *remoteError
			if errors.As(last, &re) && re.retryAfter > 0 {
				c.counters.RetryAfterWaits.Add(1)
			}
			if c.log != nil {
				c.log.Warn("shard request failed, retrying",
					"shard", shard, "path", path, "status", lastStatus, "err", last)
			}
		},
		func() (err error) {
			lastStatus, err = c.once(ctx, method, shard, path, body, out)
			return err
		})
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The caller gave up: report that, not a shard failure — the
		// shard may have been given no chance to answer.
		return fmt.Errorf("shard %s: gave up after %d attempt(s): %w", shard, n, err)
	case !retryable(err):
		return err
	}
	c.counters.ShardFailures.Add(1)
	return &ShardError{Shard: shard, Status: lastStatus, Attempts: n, Err: err}
}

// once performs a single HTTP attempt. The returned status is 0 for
// transport-level failures.
func (c *Client) once(ctx context.Context, method, shard, path string, body []byte, out any) (int, error) {
	if err := fault.Inject(SiteRoute); err != nil {
		return 0, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, shard+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.counters.ShardRequests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, &remoteError{
			status:     resp.StatusCode,
			msg:        readErrorBody(resp.Body),
			retryAfter: retryAfter(resp),
		}
	}
	switch out := out.(type) {
	case nil:
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return resp.StatusCode, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding shard response: %w", err)
	}
	return resp.StatusCode, nil
}

// retryAfter parses a delay-seconds Retry-After header, capped at
// MaxRetryAfter; 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	return min(time.Duration(secs)*time.Second, MaxRetryAfter)
}

// retryable reports whether the failed attempt may be retried against the
// same shard: transport errors and 5xx yes, context expiry and 4xx no.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if st := RemoteStatus(err); st != 0 {
		return st/100 == 5
	}
	return true // transport-level failure
}

// readErrorBody extracts the server's JSON error envelope ({"error": ...})
// or falls back to the raw body, truncated.
func readErrorBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(raw) == 0 {
		return ""
	}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return body.Error
	}
	return string(raw)
}
