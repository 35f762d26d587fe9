package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegistryRegisterLookupDiscover(t *testing.T) {
	r := NewRegistry(nil)
	a := newEchoService(t, "a", "test.Echo")
	b := newEchoService(t, "b", "test.Echo")
	other := newEchoService(t, "c", "test.Other")
	for _, s := range []*BaseService{a, b, other} {
		if err := r.RegisterService(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := r.Lookup("a"); err != nil || got.Name != "a" {
		t.Fatalf("Lookup(a) = %v, %v", got, err)
	}
	if _, err := r.Lookup("zzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup(zzz) err = %v", err)
	}
	cands := r.Discover("test.Echo")
	if len(cands) != 2 || cands[0].Name != "a" || cands[1].Name != "b" {
		t.Fatalf("Discover = %v", names(cands))
	}
	if got := r.Discover("test.Other"); len(got) != 1 || got[0].Name != "c" {
		t.Fatalf("Discover(test.Other) = %v", names(got))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func names(regs []*Registration) []string {
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.Name
	}
	return out
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry(nil)
	a := newEchoService(t, "a", "test.Echo")
	if err := r.RegisterService(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterService(a, nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register err = %v", err)
	}
}

func TestRegistryDeregisterAndRevive(t *testing.T) {
	r := NewRegistry(nil)
	a := newEchoService(t, "a", "test.Echo")
	if err := r.RegisterService(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deregistered service must not resolve")
	}
	if len(r.Discover("test.Echo")) != 0 {
		t.Fatal("deregistered service must not be discovered")
	}
	if err := r.Deregister("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deregister err = %v", err)
	}
	// Re-register over tombstone revives.
	if err := r.RegisterService(a, nil); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal("revived service must resolve")
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Register(&Registration{Name: "", Interface: "i", Contract: echoContract("i")}); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := r.Register(&Registration{Name: "n", Interface: "", Contract: echoContract("i")}); err == nil {
		t.Fatal("empty interface must fail")
	}
	if err := r.Register(&Registration{Name: "n", Interface: "i"}); err == nil {
		t.Fatal("nil contract must fail")
	}
}

func TestRegistryEvents(t *testing.T) {
	bus := NewEventBus(16)
	r := NewRegistry(bus)
	ch, cancel := bus.SubscribeTypes(8, EventServiceRegistered, EventServiceDeregistered)
	defer cancel()
	a := newEchoService(t, "a", "test.Echo")
	if err := r.RegisterService(a, nil); err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	if ev.Type != EventServiceRegistered || ev.Subject != "a" {
		t.Fatalf("event = %+v", ev)
	}
	if err := r.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	ev = <-ch
	if ev.Type != EventServiceDeregistered {
		t.Fatalf("event = %+v", ev)
	}
}

func TestRegistrySnapshotMerge(t *testing.T) {
	r1 := NewRegistry(nil)
	r2 := NewRegistry(nil)
	a := newEchoService(t, "a", "test.Echo")
	if err := r1.RegisterService(a, nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a remote entry on r1.
	if err := r1.Register(&Registration{
		Name: "remote-b", Interface: "test.Echo", Contract: echoContract("test.Echo"),
		Address: "node1:9000",
	}); err != nil {
		t.Fatal(err)
	}

	snap := r1.Snapshot(0)
	if len(snap) != 2 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	for _, e := range snap {
		if e.Invoker != nil {
			t.Fatal("snapshot must strip invokers")
		}
	}

	resolved := 0
	applied := r2.Merge(snap, func(addr, name string) Invoker {
		resolved++
		return InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
			return "via:" + addr, nil
		})
	})
	// Local-only entry "a" has no address, so it cannot be resolved and
	// is skipped; the addressed entry is applied.
	if applied != 1 || resolved != 1 {
		t.Fatalf("applied = %d resolved = %d", applied, resolved)
	}
	got, err := r2.Lookup("remote-b")
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Invoker.Invoke(context.Background(), "echo", "x")
	if err != nil || out != "via:node1:9000" {
		t.Fatalf("remote invoke = %v, %v", out, err)
	}

	// Tombstone propagation: r1 drops remote-b, r2 must follow.
	if err := r1.Deregister("remote-b"); err != nil {
		t.Fatal(err)
	}
	snap2 := r1.Snapshot(0)
	r2.Merge(snap2, nil)
	if _, err := r2.Lookup("remote-b"); !errors.Is(err, ErrNotFound) {
		t.Fatal("tombstone must propagate through merge")
	}
}

func TestRegistrySnapshotSince(t *testing.T) {
	r := NewRegistry(nil)
	for i := 0; i < 5; i++ {
		s := newEchoService(t, fmt.Sprintf("s%d", i), "test.Echo")
		if err := r.RegisterService(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot(0)
	clock := snap[len(snap)-1].Version
	if clock != 5 {
		t.Fatalf("clock = %d", clock)
	}
	if got := len(r.Snapshot(clock)); got != 0 {
		t.Fatalf("snapshot since clock = %d entries", got)
	}
	if got := len(r.Snapshot(clock - 2)); got != 2 {
		t.Fatalf("snapshot since clock-2 = %d entries", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("svc-%d", i)
			s := NewService(name, echoContract("test.Echo"))
			s.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
			_ = s.Start(context.Background())
			if err := r.RegisterService(s, nil); err != nil {
				t.Errorf("register: %v", err)
				return
			}
			for j := 0; j < 50; j++ {
				r.Discover("test.Echo")
				if _, err := r.Lookup(name); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
			if i%2 == 0 {
				if err := r.Deregister(name); err != nil {
					t.Errorf("deregister: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Len(); got != 8 {
		t.Fatalf("live entries = %d, want 8", got)
	}
}

// Property: after any sequence of register/deregister on unique names,
// Len equals registers minus deregisters and Discover agrees.
func TestRegistryLenQuick(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRegistry(nil)
		live := 0
		for i, reg := range ops {
			name := fmt.Sprintf("s%d", i)
			if reg || live == 0 {
				err := r.Register(&Registration{
					Name: name, Interface: "q.I", Contract: &Contract{Interface: "q.I"},
					Invoker: InvokerFunc(func(ctx context.Context, op string, req any) (any, error) { return nil, nil }),
				})
				if err != nil {
					return false
				}
				live++
			} else {
				all := r.All()
				if err := r.Deregister(all[0].Name); err != nil {
					return false
				}
				live--
			}
		}
		return r.Len() == live && len(r.Discover("q.I")) == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
