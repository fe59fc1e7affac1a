package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"unstencil/internal/cluster"
	"unstencil/internal/server"
)

// logRing keeps the last lines the servers of a run logged, so a failed
// operation can be reported with the shard's own account of it.
type logRing struct {
	mu    sync.Mutex
	lines [24]string
	n     int
}

func (r *logRing) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		r.lines[r.n%len(r.lines)] = line
		r.n++
	}
	return len(p), nil
}

// tail returns the retained lines, oldest first.
func (r *logRing) tail() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for i := max(0, r.n-len(r.lines)); i < r.n; i++ {
		b.WriteString("    " + r.lines[i%len(r.lines)] + "\n")
	}
	return b.String()
}

// topology says what a workload deploys: how many shards, whether a
// coordinator fronts them, and where the shards' artifact store lives
// ("" means no disk tier).
type topology struct {
	shards      int
	coordinator bool
	storeDir    string
}

// listener is one handler served on a loopback port of the kernel's choice.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return l, nil
}

func (l *listener) shutdown(ctx context.Context) error {
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// shard is one in-process unstencild behind a real TCP listener.
type shard struct {
	srv *server.Server
	*listener
}

// deployment is the system under test: shards, optionally a coordinator,
// and the URL the load generator talks to.
type deployment struct {
	shards []*shard
	coord  *cluster.Coordinator
	front  *listener // the coordinator's listener, or shard 0's
}

// deploy brings the topology up. Shards run one job worker and one
// evaluation worker each, so a two-shard deployment never asks a two-core
// host for more than two busy threads.
func deploy(t topology, logs *logRing) (*deployment, error) {
	log := slog.New(slog.NewTextHandler(logs, nil))
	d := &deployment{}
	var urls []string
	for i := 0; i < t.shards; i++ {
		srv, err := server.New(server.Config{Workers: 1, EvalWorkers: 1, StoreDir: t.storeDir, Log: log})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		l, err := listen(srv)
		if err != nil {
			closeServer(context.Background(), srv)
			d.close()
			return nil, err
		}
		d.shards = append(d.shards, &shard{srv: srv, listener: l})
		urls = append(urls, l.url)
	}
	d.front = d.shards[0].listener
	if t.coordinator {
		co, err := cluster.New(cluster.Config{Shards: urls, Log: log})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		co.Start()
		l, err := listen(co)
		if err != nil {
			co.Close()
			d.close()
			return nil, err
		}
		d.coord, d.front = co, l
	}
	return d, nil
}

// shardByURL returns the shard listening on url.
func (d *deployment) shardByURL(url string) (*shard, error) {
	for _, s := range d.shards {
		if s.url == url {
			return s, nil
		}
	}
	return nil, fmt.Errorf("no shard listens on %q", url)
}

// close stops the coordinator, then every shard: listener first, then the
// job manager (draining), then the journal. Safe on a partly built
// deployment.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if d.coord != nil {
		errs = append(errs, d.front.shutdown(ctx))
		d.coord.Close()
	}
	for _, s := range d.shards {
		errs = append(errs, s.shutdown(ctx), closeServer(ctx, s.srv))
	}
	return errors.Join(errs...)
}

// closeServer drains the job manager, then closes the journal.
func closeServer(ctx context.Context, srv *server.Server) error {
	return errors.Join(srv.Manager().Shutdown(ctx), srv.Close())
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
