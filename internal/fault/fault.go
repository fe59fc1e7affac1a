// Package fault implements a deterministic, seed-driven fault injector for
// chaos testing the evaluation pipeline. Core, tile and server code call
// Inject at well-defined sites; when injection is disabled (the default) the
// call is a single atomic load and a nil return, so production hot paths pay
// effectively nothing. When enabled, each site draws a deterministic
// pseudo-random decision from (seed, site, per-site call counter), so a run
// with a fixed seed injects a reproducible fault sequence for a given call
// count per site — exactly what a chaos test under -race needs.
//
// Injected failures come in two flavours matching the two ways real code
// dies: a typed transient error (*Error, matched by errors.Is(err,
// ErrInjected)) and a panic with a *Panic value. Recovery layers convert the
// latter back into errors; both are classified as transient and retried.
// The one retry loop those failures meet lives here too (Policy, Retry),
// shared by core units, the server's artifact stage and cluster shard
// requests, next to the mixer its jitter draws from, and so does the one
// classification every layer retries by (Transient, Permanent).
//
// Known sites (documented in DESIGN.md §8):
//
//	core.point-block   start of a per-point block attempt
//	core.tile          start of a per-element patch (tile) attempt
//	core.assemble-row  start of each integrated operator-assembly row
//	server.handler     HTTP request entry (recovery middleware)
//	server.journal     job-journal append
//	server.shard-eval  POST /v1/shard/eval entry, before the request is decoded
//	cluster.route      each coordinator → shard HTTP attempt
package fault

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Mode selects what an injected fault does.
type Mode int

const (
	// ModeError injects transient *Error returns.
	ModeError Mode = iota
	// ModePanic injects panics carrying a *Panic value.
	ModePanic
	// ModeMixed injects a deterministic blend of both.
	ModeMixed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode inverts Mode.String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "error":
		return ModeError, nil
	case "panic":
		return ModePanic, nil
	case "mixed":
		return ModeMixed, nil
	default:
		return 0, fmt.Errorf("fault: unknown mode %q (want error|panic|mixed)", s)
	}
}

// Config describes one injection campaign.
type Config struct {
	// Seed drives every injection decision; two campaigns with the same
	// seed, sites and per-site call counts inject identical fault sequences.
	Seed int64
	// Mode selects error faults, panic faults, or a deterministic mix.
	Mode Mode
	// Sites maps site name -> injection probability in [0, 1]. Sites absent
	// from the map never fault.
	Sites map[string]float64
	// MaxFaults caps the total number of injected faults; 0 means unlimited.
	MaxFaults uint64
}

// Error is an injected transient error.
type Error struct {
	Site string // injection site
	N    uint64 // zero-based call number at the site
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s (call %d)", e.Site, e.N)
}

// ErrInjected is the sentinel matched by errors.Is for every injected
// *Error.
var ErrInjected = errors.New("fault: injected")

// Is lets errors.Is(err, ErrInjected) match.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Panic is the value thrown by panic-mode injections; recovery layers can
// type-assert it to distinguish injected chaos from genuine bugs.
type Panic struct {
	Site string
	N    uint64
}

// String implements fmt.Stringer (panic values are printed with %v).
func (p *Panic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (call %d)", p.Site, p.N)
}

// siteState is the per-site decision state, read-only after Enable except
// for the atomic counters.
type siteState struct {
	name     string
	prob     float64
	calls    atomic.Uint64
	injected atomic.Uint64
}

// Injector is one enabled campaign. The package keeps a single active
// injector; tests may also construct and drive one directly.
type Injector struct {
	seed  uint64
	mode  Mode
	max   uint64
	sites map[string]*siteState
	total atomic.Uint64
}

// NewInjector validates cfg and builds an injector without installing it.
func NewInjector(cfg Config) (*Injector, error) {
	inj := &Injector{
		seed:  uint64(cfg.Seed),
		mode:  cfg.Mode,
		max:   cfg.MaxFaults,
		sites: make(map[string]*siteState, len(cfg.Sites)),
	}
	for site, p := range cfg.Sites {
		if site == "" {
			return nil, errors.New("fault: empty site name")
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("fault: site %s probability %g outside [0, 1]", site, p)
		}
		inj.sites[site] = &siteState{name: site, prob: p}
	}
	return inj, nil
}

// active is the installed injector; nil means injection is off.
var active atomic.Pointer[Injector]

// Enable installs a campaign, replacing any previous one.
func Enable(cfg Config) error {
	inj, err := NewInjector(cfg)
	if err != nil {
		return err
	}
	active.Store(inj)
	return nil
}

// Disable removes the active campaign; Inject returns to its zero-overhead
// disabled path.
func Disable() { active.Store(nil) }

// Enabled reports whether a campaign is installed.
func Enabled() bool { return active.Load() != nil }

// Inject draws a fault decision for site. It returns nil (no fault), returns
// a transient *Error, or panics with a *Panic, per the active campaign.
// Disabled cost: one atomic load.
func Inject(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.Inject(site)
}

// Inject is the instance form of the package-level Inject.
func (inj *Injector) Inject(site string) error {
	st := inj.sites[site]
	if st == nil {
		return nil
	}
	n := st.calls.Add(1) - 1
	if st.prob == 0 {
		return nil
	}
	h := Mix64(inj.seed ^ HashString(site) ^ Mix64(n))
	if float64(h>>11)/(1<<53) >= st.prob {
		return nil
	}
	if t := inj.total.Add(1); inj.max > 0 && t > inj.max {
		inj.total.Add(^uint64(0)) // undo: the cap was already reached
		return nil
	}
	st.injected.Add(1)
	// A second mix decorrelates the panic/error choice from the fire
	// decision above.
	if inj.mode == ModePanic || (inj.mode == ModeMixed && Mix64(h)&1 == 1) {
		panic(&Panic{Site: site, N: n})
	}
	return &Error{Site: site, N: n}
}

// SiteStats is the per-site observation snapshot.
type SiteStats struct {
	Calls    uint64 `json:"calls"`
	Injected uint64 `json:"injected"`
}

// Stats snapshots the active campaign's per-site counters; nil when
// disabled.
func Stats() map[string]SiteStats {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.Stats()
}

// Stats snapshots per-site counters.
func (inj *Injector) Stats() map[string]SiteStats {
	out := make(map[string]SiteStats, len(inj.sites))
	for name, st := range inj.sites {
		out[name] = SiteStats{Calls: st.calls.Load(), Injected: st.injected.Load()}
	}
	return out
}

// Total returns how many faults the campaign has injected.
func (inj *Injector) Total() uint64 { return inj.total.Load() }

// ParseSpec parses the compact ops-facing campaign syntax used by the
// -fault-spec daemon flag:
//
//	seed=42,mode=mixed,p=0.05,sites=core.tile;server.journal:0.2,max=100
//
// Comma-separated key=value pairs; sites is a semicolon-separated list of
// site[:probability] entries, where sites without an explicit probability
// take the default from p (which itself defaults to 0.01).
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Sites: map[string]float64{}}
	defProb := 0.01
	var bare []string
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: spec entry %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "mode":
			cfg.Mode, err = ParseMode(val)
		case "p":
			defProb, err = strconv.ParseFloat(val, 64)
		case "max":
			cfg.MaxFaults, err = strconv.ParseUint(val, 10, 64)
		case "sites":
			for _, ent := range strings.Split(val, ";") {
				ent = strings.TrimSpace(ent)
				if ent == "" {
					continue
				}
				site, prob, hasProb := strings.Cut(ent, ":")
				p := -1.0
				if hasProb {
					if p, err = strconv.ParseFloat(prob, 64); err != nil {
						return Config{}, fmt.Errorf("fault: site %q: %v", ent, err)
					}
				}
				cfg.Sites[site] = p // default-prob entries resolved below
				if p < 0 {
					bare = append(bare, site)
				}
			}
		default:
			return Config{}, fmt.Errorf("fault: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("fault: spec key %q: %v", key, err)
		}
	}
	for _, site := range bare {
		cfg.Sites[site] = defProb
	}
	if len(cfg.Sites) == 0 {
		return Config{}, errors.New("fault: spec names no sites")
	}
	return cfg, nil
}

// Mix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit mixing
// function. Exported because the cluster's hash ring reuses it; Retry's
// jitter draws from it too.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Policy shapes Retry: Attempts tries in total, the retries separated by
// capped exponential backoff. The zero value tries once.
type Policy struct {
	Attempts int           // total tries; < 1 means 1 (no retry)
	Base     time.Duration // wait before the first retry, doubling per retry; <= 0 retries at once
	Max      time.Duration // backoff cap; <= 0 means 500 ms
}

// Transient reports whether a failed try is worth another: false for nil,
// a context error (the caller gave up or ran out of time) and an error
// whose chain has a Permanent() method that returns true, else true.
func Transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe interface{ Permanent() bool }
	return !errors.As(err, &pe) || !pe.Permanent()
}

// Permanent wraps err, keeping its message, so that Transient rejects it:
// the failure would repeat on every try, as a missing mesh's does.
func Permanent(err error) error { return permanent{err} }

type permanent struct{ error }

func (permanent) Permanent() bool { return true }
func (e permanent) Unwrap() error { return e.error }

// Retry is the one retry loop. It runs try until try succeeds, fails with
// an error that is not Transient, or has spent p.Attempts, and returns the
// tries made and the last error. Before each wait it calls onRetry(last).
// The wait is last's own positive RetryAfter(), else the backoff jittered
// by key^r: a caller keying by what it retries de-synchronizes concurrent
// retries identically on every run. A ctx that ends mid-wait ends the loop
// with ctx's error, not the failure being waited out.
func Retry(ctx context.Context, p Policy, key uint64, onRetry func(last error), try func() error) (attempts int, err error) {
	for r := 1; ; r++ {
		err = try()
		if r >= p.Attempts || !Transient(err) {
			return r, err
		}
		onRetry(err)
		if err := sleep(ctx, p.wait(r, key, err)); err != nil {
			return r, err
		}
	}
}

// wait is the pause before retry r (1-based) after the failure last: its
// positive RetryAfter(), or else Base·2^(r-1) capped at Max and scaled by a
// jitter factor in [0.5, 1) drawn from Mix64(key^r).
func (p Policy) wait(r int, key uint64, last error) time.Duration {
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(last, &ra) && ra.RetryAfter() > 0 {
		return ra.RetryAfter()
	}
	if p.Base <= 0 {
		return 0
	}
	if p.Max <= 0 {
		p.Max = 500 * time.Millisecond
	}
	d := p.Base << uint(min(r-1, 16))
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	f := 0.5 + 0.5*float64(Mix64(key^uint64(r))>>11)/(1<<53)
	return time.Duration(float64(d) * f)
}

// sleep waits d, or returns ctx's error as soon as ctx ends. d <= 0 only
// polls ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// HashString is FNV-1a, inlined to keep the package dependency-free.
// Exported for Retry keys derived from a name, such as a mesh id.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
