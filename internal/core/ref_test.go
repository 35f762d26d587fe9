package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func registryWith(t *testing.T, ifaces map[string]string) (*Registry, map[string]*BaseService) {
	t.Helper()
	r := NewRegistry(nil)
	svcs := make(map[string]*BaseService)
	for name, iface := range ifaces {
		s := newEchoService(t, name, iface)
		if err := r.RegisterService(s, nil); err != nil {
			t.Fatal(err)
		}
		svcs[name] = s
	}
	return r, svcs
}

func TestRefResolveAndInvoke(t *testing.T) {
	r, _ := registryWith(t, map[string]string{"a": "test.Echo", "b": "test.Echo"})
	ref := NewRef(r, "test.Echo", nil)
	out, err := ref.Invoke(context.Background(), "echo", "hi")
	if err != nil {
		t.Fatal(err)
	}
	if out != "a:hi" {
		t.Fatalf("out = %v, want a:hi (SelectFirst)", out)
	}
	if ref.Current() != "a" {
		t.Fatalf("Current = %q", ref.Current())
	}
}

func TestRefNoProvider(t *testing.T) {
	r := NewRegistry(nil)
	ref := NewRef(r, "test.Missing", nil)
	if _, err := ref.Invoke(context.Background(), "echo", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefSelfHealsWhenProviderStops(t *testing.T) {
	ctx := context.Background()
	r, svcs := registryWith(t, map[string]string{"a": "test.Echo", "b": "test.Echo"})
	ref := NewRef(r, "test.Echo", nil)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "a:x" {
		t.Fatalf("first call went to %v", out)
	}
	// Stop the cached provider without touching the registry: the ref
	// must fail over on the ErrNotRunning response.
	if err := svcs["a"].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	_ = r.Deregister("a")
	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil {
		t.Fatalf("self-heal failed: %v", err)
	}
	if out != "b:x" {
		t.Fatalf("out = %v, want b:x", out)
	}
}

func TestRefAvoid(t *testing.T) {
	ctx := context.Background()
	r, _ := registryWith(t, map[string]string{"a": "test.Echo", "b": "test.Echo"})
	ref := NewRef(r, "test.Echo", nil)
	ref.Avoid("a", true)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "b:x" {
		t.Fatalf("out = %v, want b:x", out)
	}
	// Avoiding everything falls back to the full candidate set.
	ref.Avoid("b", true)
	if _, err := ref.Invoke(ctx, "echo", "x"); err != nil {
		t.Fatalf("all-avoided fallback: %v", err)
	}
	ref.Avoid("a", false)
	ref.Avoid("b", false)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "a:x" {
		t.Fatalf("out = %v, want a:x after clearing avoid", out)
	}
}

func TestRefUncachedAlwaysResolves(t *testing.T) {
	ctx := context.Background()
	r, _ := registryWith(t, map[string]string{"b": "test.Echo"})
	ref := NewUncachedRef(r, "test.Echo", nil)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "b:x" {
		t.Fatal("uncached ref must resolve")
	}
	// Register a lexicographically earlier provider; uncached ref picks
	// it up immediately with SelectFirst.
	a := newEchoService(t, "a", "test.Echo")
	if err := r.RegisterService(a, nil); err != nil {
		t.Fatal(err)
	}
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "a:x" {
		t.Fatal("uncached ref must re-resolve every call")
	}
	if ref.Current() != "" {
		t.Fatal("uncached ref must not cache")
	}
}

func TestSelectors(t *testing.T) {
	mk := func(name string, cost float64, avail float64, class string, tags map[string]string) *Registration {
		return &Registration{
			Name: name, Interface: "i",
			Contract: &Contract{Interface: "i", Quality: Quality{CostFactor: cost, Availability: avail, LatencyClass: class}},
			Tags:     tags,
		}
	}
	cands := []*Registration{
		mk("exp", 5, 0.9, "network", map[string]string{"node": "far"}),
		mk("mid", 2, 0.99, "disk", map[string]string{"node": "near"}),
		mk("chp", 1, 0.95, "memory", nil),
	}
	if got := SelectFirst(cands); got.Name != "exp" {
		t.Fatalf("SelectFirst = %s", got.Name)
	}
	if got := SelectByTag("node", "near", nil)(cands); got.Name != "mid" {
		t.Fatalf("SelectByTag = %s", got.Name)
	}
	if got := SelectByTag("node", "nowhere", nil)(cands); got.Name != "exp" {
		t.Fatalf("SelectByTag fallback = %s", got.Name)
	}
	if SelectFirst(nil) != nil || SelectByTag("node", "near", nil)(nil) != nil {
		t.Fatal("selectors must return nil on empty candidates")
	}
}

// An invalidation that lands while a resolution is between Discover and
// caching its choice must win: the next call re-resolves instead of
// reusing the provider the invalidation steered away from.
func TestRefInvalidateDuringResolve(t *testing.T) {
	ctx := context.Background()
	r, _ := registryWith(t, map[string]string{"a": "test.Echo", "b": "test.Echo"})
	inSelector := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ref := NewRef(r, "test.Echo", func(cands []*Registration) *Registration {
		once.Do(func() {
			close(inSelector)
			<-release
		})
		return SelectFirst(cands)
	})
	racing := make(chan any)
	go func() {
		out, _ := ref.Invoke(ctx, "echo", "x")
		racing <- out
	}()
	<-inSelector
	ref.Avoid("a", true)
	close(release)
	if out := <-racing; out != "a:x" {
		t.Fatalf("racing call = %v, want a:x (it resolved before the avoid)", out)
	}
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "b:x" {
		t.Fatalf("call after Avoid(a) = %v, want b:x", out)
	}
}

// A cached Ref.Invoke is the hop every kernel call makes: it must not
// allocate beyond what the provider's handler does (here nothing).
func TestRefInvokeAllocs(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(nil)
	if err := r.RegisterService(newIdentityService(t), nil); err != nil {
		t.Fatal(err)
	}
	ref := NewRef(r, "test.Echo", nil)
	var req any = "x"
	if _, err := ref.Invoke(ctx, "echo", req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ref.Invoke(ctx, "echo", req) }); n != 0 {
		t.Fatalf("cached Ref.Invoke allocates %.1f per call, want 0", n)
	}
}
