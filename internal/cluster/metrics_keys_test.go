package cluster

import (
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// TestCoordinatorMetricsKeyPaths pins the coordinator's /debug/metrics
// body after one distributed job: every key path (shard URLs folded to
// "<shard>", array elements to "[]"), a JSON number for every counter and
// one of the four state strings for every shard.
func TestCoordinatorMetricsKeyPaths(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(6))
	var sub struct {
		ID string `json:"id"`
	}
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v := waitClusterJob(t, cts.URL, sub.ID, 60*time.Second); v.State != server.StateDone {
		t.Fatalf("distributed job: state %s err %q", v.State, v.Error)
	}
	var body map[string]any
	if code := getJSON(t, cts.URL+"/debug/metrics", &body); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}

	states := []any{"ready", "not-ready", "down", "unknown"}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if strings.HasPrefix(k, "http://") {
					k = "<shard>"
				}
				walk(path+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			path = path[1:]
			set[path] = true
			section, _, _ := strings.Cut(path, ".")
			_, num := v.(float64)
			switch {
			case strings.HasSuffix(path, ".state"):
				if !slices.Contains(states, v) {
					t.Errorf("%s = %v, want one of %v", path, v, states)
				}
			case (section == "cluster" || section == "faults") && !num:
				t.Errorf("%s = %v (%T), want a JSON number", path, v, v)
			}
		}
	}
	walk("", body)
	got := make([]string, 0, len(set))
	for p := range set {
		got = append(got, p)
	}
	sort.Strings(got)
	want := []string{
		// Recorded at the commit before the counter sets marshalled
		// themselves, less the keys of counters deleted since.
		"cluster.degraded_jobs", "cluster.failovers",
		"cluster.hedge_wins", "cluster.hedges", "cluster.jobs_distributed",
		"cluster.jobs_routed", "cluster.mesh_fanouts", "cluster.mesh_reseeds",
		"cluster.queries_routed", "cluster.retries", "cluster.retry_after_waits",
		"cluster.shard_failures", "cluster.shard_requests",
		"faults.degraded_jobs", "faults.job_retries", "faults.jobs_replayed",
		"faults.panics_recovered", "faults.tile_retries", "faults.tiles_failed",
		"jobs.done",
		"meshes",
		"routing.<shard>.meshes[]", "routing.<shard>.state",
		"routing.<shard>.vnodes",
		"shards[].consecutive_fails", "shards[].probes", "shards[].shard",
		"shards[].state",
		"uptime_ms",
	}
	if !slices.Equal(got, want) {
		t.Errorf("key paths differ\n got %q\nwant %q", got, want)
	}
}
