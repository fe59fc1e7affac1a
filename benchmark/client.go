package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"time"

	"unstencil/internal/server"
)

const (
	// pollEvery is the closed-loop client's status polling period.
	pollEvery = 500 * time.Microsecond
	// opTimeout bounds one operation; past it the op counts as failed
	// instead of hanging the run.
	opTimeout = 30 * time.Second
)

// client is the single closed-loop load generator: one request in flight.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// do sends one request and reads the whole response. Any non-2xx status is
// an error carrying the server's message.
func (c *client) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// uploadMesh posts the encoded mesh and returns the content-hash id the
// front door answers with.
func (c *client) uploadMesh(base string, raw []byte) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	body, err := c.do(ctx, http.MethodPost, base+"/v1/meshes", raw)
	if err != nil {
		return "", err
	}
	var out struct {
		MeshID string `json:"mesh_id"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.MeshID == "" {
		return "", fmt.Errorf("mesh upload answered %q (%v)", body, err)
	}
	return out.MeshID, nil
}

// jobStatus is the part of a job's status (shard JobStatus or coordinator
// JobView) the benchmark reads.
type jobStatus struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Error     string   `json:"error"`
	CacheHits []string `json:"cache_hits"`
	// Shard is the home shard of a job the coordinator routed whole;
	// Shards are the shards that evaluated a distributed job's patch
	// ranges, in range order.
	Shard  string   `json:"shard"`
	Shards []string `json:"shards"`
}

// jobOutcome is one completed job as the client saw it. The four instants
// bound its three phases: submit round trip, polling until done, result
// fetch. The clock stops when the last result byte has been read.
type jobOutcome struct {
	start, submitted, done, fetched time.Time
	polls                           int
	status                          jobStatus
	body                            []byte
}

func (o *jobOutcome) latency() time.Duration { return o.fetched.Sub(o.start) }

// runJob submits spec to base, polls its status every pollEvery until it
// is done, and fetches the result.
func (c *client) runJob(base string, spec server.JobSpec) (*jobOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	o := &jobOutcome{start: time.Now()}
	raw, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", payload)
	if err != nil {
		return nil, err
	}
	o.submitted = time.Now()
	var accepted jobStatus
	if err := json.Unmarshal(raw, &accepted); err != nil || accepted.ID == "" {
		return nil, fmt.Errorf("job submit answered %q (%v)", raw, err)
	}
	for {
		raw, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID, nil)
		if err != nil {
			return nil, err
		}
		o.polls++
		if err := json.Unmarshal(raw, &o.status); err != nil {
			return nil, fmt.Errorf("job status answered %q: %w", raw, err)
		}
		if o.status.State == string(server.StateDone) {
			break
		}
		if o.status.State == string(server.StateFailed) {
			return nil, fmt.Errorf("job %s failed: %s", accepted.ID, o.status.Error)
		}
		time.Sleep(pollEvery)
	}
	o.done = time.Now()
	if o.status.Shard == "" {
		o.status.Shard = accepted.Shard
	}
	if o.body, err = c.do(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID+"/result", nil); err != nil {
		return nil, err
	}
	o.fetched = time.Now()
	return o, nil
}

// decodeSolutions returns the per-field solutions of a job result body:
// "solutions" for a batched job, else the single "solution".
func decodeSolutions(body []byte) ([][]float64, error) {
	var res struct {
		Solution  []float64   `json:"solution"`
		Solutions [][]float64 `json:"solutions"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	if len(res.Solutions) > 0 {
		return res.Solutions, nil
	}
	if len(res.Solution) == 0 {
		return nil, fmt.Errorf("result carries no solution")
	}
	return [][]float64{res.Solution}, nil
}

// hashSolution fingerprints a solution's exact bit patterns.
func hashSolution(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
