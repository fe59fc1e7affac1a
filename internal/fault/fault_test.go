package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// drive calls Inject n times at site, recovering injected panics, and
// returns (errors, panics) observed.
func drive(inj *Injector, site string, n int) (errs, panics int) {
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*Panic); !ok {
						panic(r) // not ours
					}
					panics++
				}
			}()
			if err := inj.Inject(site); err != nil {
				errs++
			}
		}()
	}
	return
}

func TestDisabledIsNil(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
	for i := 0; i < 1000; i++ {
		if err := Inject("core.tile"); err != nil {
			t.Fatalf("disabled Inject returned %v", err)
		}
	}
	if Stats() != nil {
		t.Fatal("Stats() non-nil while disabled")
	}
}

func TestDeterministicSequence(t *testing.T) {
	mk := func() *Injector {
		inj, err := NewInjector(Config{
			Seed: 7, Mode: ModeError,
			Sites: map[string]float64{"s": 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	// Same seed, same serial call sequence -> identical fault positions.
	var seqA, seqB []int
	a, b := mk(), mk()
	for i := 0; i < 2000; i++ {
		if a.Inject("s") != nil {
			seqA = append(seqA, i)
		}
		if b.Inject("s") != nil {
			seqB = append(seqB, i)
		}
	}
	if len(seqA) == 0 {
		t.Fatal("no faults at p=0.25 over 2000 calls")
	}
	if len(seqA) != len(seqB) {
		t.Fatalf("fault counts differ: %d vs %d", len(seqA), len(seqB))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("fault position %d differs: %d vs %d", i, seqA[i], seqB[i])
		}
	}
	// Rough rate check: expect ~500, allow wide slack.
	if n := len(seqA); n < 300 || n > 700 {
		t.Errorf("fault count %d far from expectation 500", n)
	}
}

func TestSeedChangesSequence(t *testing.T) {
	posFor := func(seed int64) []int {
		inj, _ := NewInjector(Config{Seed: seed, Sites: map[string]float64{"s": 0.2}})
		var pos []int
		for i := 0; i < 500; i++ {
			if inj.Inject("s") != nil {
				pos = append(pos, i)
			}
		}
		return pos
	}
	a, b := posFor(1), posFor(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestModes(t *testing.T) {
	inj, _ := NewInjector(Config{Seed: 3, Mode: ModePanic, Sites: map[string]float64{"s": 1}})
	errs, panics := drive(inj, "s", 50)
	if errs != 0 || panics != 50 {
		t.Fatalf("panic mode: %d errors, %d panics", errs, panics)
	}
	inj, _ = NewInjector(Config{Seed: 3, Mode: ModeError, Sites: map[string]float64{"s": 1}})
	errs, panics = drive(inj, "s", 50)
	if errs != 50 || panics != 0 {
		t.Fatalf("error mode: %d errors, %d panics", errs, panics)
	}
	inj, _ = NewInjector(Config{Seed: 3, Mode: ModeMixed, Sites: map[string]float64{"s": 1}})
	errs, panics = drive(inj, "s", 200)
	if errs == 0 || panics == 0 || errs+panics != 200 {
		t.Fatalf("mixed mode: %d errors, %d panics", errs, panics)
	}
}

func TestErrorIdentity(t *testing.T) {
	inj, _ := NewInjector(Config{Seed: 1, Sites: map[string]float64{"s": 1}})
	err := inj.Inject("s")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) false", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != "s" {
		t.Fatalf("errors.As failed: %v", err)
	}
}

func TestMaxFaultsCap(t *testing.T) {
	inj, _ := NewInjector(Config{Seed: 1, Sites: map[string]float64{"s": 1}, MaxFaults: 5})
	errs, _ := drive(inj, "s", 100)
	if errs != 5 {
		t.Fatalf("cap 5: injected %d", errs)
	}
	if inj.Total() != 5 {
		t.Fatalf("Total() = %d, want 5", inj.Total())
	}
}

func TestUnknownSiteNeverFaults(t *testing.T) {
	inj, _ := NewInjector(Config{Seed: 1, Sites: map[string]float64{"s": 1}})
	if err := inj.Inject("other"); err != nil {
		t.Fatalf("unconfigured site faulted: %v", err)
	}
}

func TestStatsAndConcurrency(t *testing.T) {
	if err := Enable(Config{Seed: 9, Mode: ModeError,
		Sites: map[string]float64{"a": 0.5, "b": 0}}); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = Inject("a")
				_ = Inject("b")
			}
		}()
	}
	wg.Wait()
	st := Stats()
	if st["a"].Calls != 4000 || st["b"].Calls != 4000 {
		t.Fatalf("calls %+v", st)
	}
	if st["a"].Injected == 0 || st["b"].Injected != 0 {
		t.Fatalf("injected %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewInjector(Config{Sites: map[string]float64{"s": 1.5}}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := NewInjector(Config{Sites: map[string]float64{"": 0.5}}); err == nil {
		t.Error("empty site accepted")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42,mode=mixed,p=0.05,sites=core.tile;server.journal:0.2,max=100")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.Mode != ModeMixed || cfg.MaxFaults != 100 {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg.Sites["core.tile"] != 0.05 || cfg.Sites["server.journal"] != 0.2 {
		t.Fatalf("sites %+v", cfg.Sites)
	}

	for _, bad := range []string{"", "sites=", "seed=x,sites=s", "mode=quantum,sites=s", "bogus"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func BenchmarkInjectDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if err := Inject("core.tile"); err != nil {
			b.Fatal(err)
		}
	}
}

// busyErr is a failure that names its own wait.
type busyErr time.Duration

func (e busyErr) Error() string             { return "busy" }
func (e busyErr) RetryAfter() time.Duration { return time.Duration(e) }

// refusedErr is a failure that classifies itself: permanent when true.
type refusedErr bool

func (e refusedErr) Error() string   { return "refused" }
func (e refusedErr) Permanent() bool { return bool(e) }

// TestTransient: nil, context errors and a chain with a true Permanent()
// are not worth a retry; everything else is.
func TestTransient(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errBoom, true},
		{&Error{Site: "s"}, true},
		{context.Canceled, false},
		{fmt.Errorf("attempt: %w", context.DeadlineExceeded), false},
		{Permanent(errBoom), false},
		{fmt.Errorf("job: %w", Permanent(errBoom)), false},
		{refusedErr(true), false},
		{refusedErr(false), true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if err := Permanent(errBoom); err.Error() != "boom" || !errors.Is(err, errBoom) {
		t.Errorf("Permanent(boom) = %q, does not read or unwrap as boom", err)
	}
}

// TestRetry drives the one retry loop through each of its rules. Every row
// runs under a 10 s deadline, so a row that waits an hour-long backoff it
// should not fails on the deadline instead of hanging.
func TestRetry(t *testing.T) {
	errBoom := errors.New("boom")
	instant := Policy{Attempts: 3}
	hour := Policy{Attempts: 3, Base: time.Hour, Max: time.Hour}
	cases := []struct {
		name   string
		p      Policy
		fails  int    // tries that fail before one succeeds
		fail   error  // what a failing try returns
		cancel bool   // onRetry cancels ctx, so the wait must end with it
		events string // T per try, R per onRetry, in order
		want   error
	}{
		{"stops at the first success", instant, 1, errBoom, false, "TRT", nil},
		{"stops on a rejected error", instant, 5, Permanent(errBoom), false, "T", errBoom},
		{"stops on an error that says it is permanent", instant, 5, refusedErr(true), false, "T", refusedErr(true)},
		{"never retries context.Canceled", instant, 5, fmt.Errorf("wrapped: %w", context.Canceled), false, "T", context.Canceled},
		{"spends exactly Attempts", instant, 5, errBoom, false, "TRTRT", errBoom},
		{"zero policy tries once", Policy{}, 5, errBoom, false, "T", errBoom},
		{"RetryAfter replaces the backoff", hour, 2, busyErr(time.Millisecond), false, "TRTRT", nil},
		{"ctx cancelled mid-wait", hour, 5, errBoom, true, "TR", context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var events strings.Builder
			attempts, err := Retry(ctx, tc.p, 7,
				func(last error) {
					events.WriteByte('R')
					if !errors.Is(last, tc.fail) {
						t.Errorf("onRetry(%v), want the failure %v", last, tc.fail)
					}
					if tc.cancel {
						cancel()
					}
				},
				func() error {
					events.WriteByte('T')
					if strings.Count(events.String(), "T") <= tc.fails {
						return tc.fail
					}
					return nil
				})
			if events.String() != tc.events {
				t.Errorf("events %q, want %q", events.String(), tc.events)
			}
			if want := strings.Count(tc.events, "T"); attempts != want {
				t.Errorf("attempts = %d, want %d", attempts, want)
			}
			if (tc.want == nil) != (err == nil) || !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWaitDeterministicAndCapped: the backoff before retry r is a pure
// function of (key, r), starts in [Base/2, Base), never exceeds Max (500 ms
// when unset), mixes the key, and is zero for a zero Base.
func TestWaitDeterministicAndCapped(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 20 * time.Millisecond}
	for r := 1; r <= 40; r++ {
		d := p.wait(r, 3<<20, nil)
		if d != p.wait(r, 3<<20, nil) {
			t.Fatalf("retry %d: non-deterministic wait", r)
		}
		if d > p.Max {
			t.Fatalf("retry %d: wait %v over cap %v", r, d, p.Max)
		}
		if r == 1 && (d < p.Base/2 || d >= p.Base) {
			t.Fatalf("first wait %v outside [Base/2, Base)", d)
		}
	}
	if d := p.wait(1, 3<<20, nil); d == p.wait(1, 4<<20, nil) && d == p.wait(1, 5<<20, nil) {
		t.Error("wait identical across keys: key not mixed into the jitter")
	}
	if d := (Policy{Base: time.Second}).wait(5, 0, nil); d < 250*time.Millisecond || d >= 500*time.Millisecond {
		t.Errorf("unset Max: wait %v, want within [250ms, 500ms)", d)
	}
	if (Policy{Max: time.Second}).wait(1, 0, nil) != 0 {
		t.Error("zero Base must not wait")
	}
}
