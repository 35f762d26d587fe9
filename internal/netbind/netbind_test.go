package netbind

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func echoContract(iface string) *core.Contract {
	return &core.Contract{
		Interface: iface,
		Operations: []core.OpSpec{
			{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"},
		},
	}
}

func newEchoService(t testing.TB, name, iface string) *core.BaseService {
	t.Helper()
	s := core.NewService(name, echoContract(iface))
	s.Handle("echo", func(ctx context.Context, req any) (any, error) {
		str, _ := req.(string)
		return name + ":" + str, nil
	})
	core.WithPing(s)
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func serve(t *testing.T, svcs ...*core.BaseService) (*core.Registry, *Server) {
	t.Helper()
	reg := core.NewRegistry(nil)
	for _, s := range svcs {
		if err := reg.RegisterService(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(reg, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return reg, srv
}

func TestRemoteInvoke(t *testing.T) {
	_, srv := serve(t, newEchoService(t, "svc", "test.Echo"))
	c := NewClient(srv.Addr())
	defer c.Close()
	out, err := c.Call(context.Background(), "svc", "echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if out != "svc:hello" {
		t.Fatalf("out = %v", out)
	}
	// Ping across the wire.
	out, err = c.Call(context.Background(), "svc", core.PingOp, nil)
	if err != nil || out != "pong:svc" {
		t.Fatalf("ping = %v, %v", out, err)
	}
}

func TestRemoteErrors(t *testing.T) {
	_, srv := serve(t, newEchoService(t, "svc", "test.Echo"))
	c := NewClient(srv.Addr())
	defer c.Close()
	// Unknown service.
	if _, err := c.Call(context.Background(), "ghost", "echo", "x"); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v", err)
	}
	// Unknown op surfaces as remote error with message.
	_, err := c.Call(context.Background(), "svc", "nosuch", "x")
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokerForIsCoreInvoker(t *testing.T) {
	_, srv := serve(t, newEchoService(t, "svc", "test.Echo"))
	c := NewClient(srv.Addr())
	defer c.Close()
	var inv core.Invoker = c.InvokerFor("svc")
	out, err := inv.Invoke(context.Background(), "echo", "x")
	if err != nil || out != "svc:x" {
		t.Fatalf("invoke = %v, %v", out, err)
	}
}

func TestClientReconnects(t *testing.T) {
	_, srv := serve(t, newEchoService(t, "svc", "test.Echo"))
	c := NewClient(srv.Addr())
	defer c.Close()
	if _, err := c.Call(context.Background(), "svc", "echo", "1"); err != nil {
		t.Fatal(err)
	}
	// Kill the connection server-side; the next call must redial.
	srv.mu.Lock()
	for conn := range srv.conns {
		_ = conn.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Call(context.Background(), "svc", "echo", "2")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
	}
}

func TestClientClosed(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	_ = c.Close()
	if _, err := c.Call(context.Background(), "s", "op", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens on port 1
	defer c.Close()
	if _, err := c.Call(context.Background(), "s", "op", nil); err == nil {
		t.Fatal("dial must fail")
	}
}

func TestContextDeadlinePropagates(t *testing.T) {
	slow := core.NewService("slow", echoContract("test.Slow"))
	slow.Handle("echo", func(ctx context.Context, req any) (any, error) {
		time.Sleep(200 * time.Millisecond)
		return "done", nil
	})
	_ = slow.Start(context.Background())
	_, srv := serve(t, slow)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", "echo", "x"); err == nil {
		t.Fatal("deadline must abort the call")
	}
}

func TestGossipSync(t *testing.T) {
	// Node A serves svcA; node B serves svcB; after one sync in each
	// direction both registries know both services and can call across.
	regA, srvA := serve(t, newEchoService(t, "svcA", "test.Echo"))
	regB, srvB := serve(t, newEchoService(t, "svcB", "test.Echo"))

	peerB := NewClient(srvB.Addr())
	defer peerB.Close()
	if _, err := Sync(context.Background(), regA, srvA.Addr(), peerB); err != nil {
		t.Fatal(err)
	}
	// A now knows svcB.
	reg, err := regA.Lookup("svcB")
	if err != nil {
		t.Fatal("svcB not propagated to A")
	}
	out, err := reg.Invoker.Invoke(context.Background(), "echo", "x")
	if err != nil || out != "svcB:x" {
		t.Fatalf("cross-node call = %v, %v", out, err)
	}
	// The sync reply also taught B about svcA.
	if _, err := regB.Lookup("svcA"); err != nil {
		t.Fatal("svcA not propagated to B via reply")
	}
	// Selection across nodes: a ref over test.Echo on A sees both.
	cands := regA.Discover("test.Echo")
	if len(cands) != 2 {
		t.Fatalf("candidates on A = %d", len(cands))
	}
}

func TestGossipTombstonePropagation(t *testing.T) {
	regA, srvA := serve(t, newEchoService(t, "svcA", "test.Echo"))
	regB, srvB := serve(t, newEchoService(t, "svcB", "test.Echo"))
	peerB := NewClient(srvB.Addr())
	defer peerB.Close()
	if _, err := Sync(context.Background(), regA, srvA.Addr(), peerB); err != nil {
		t.Fatal(err)
	}
	// B drops svcB; next sync must remove it from A.
	if err := regB.Deregister("svcB"); err != nil {
		t.Fatal(err)
	}
	if _, err := Sync(context.Background(), regA, srvA.Addr(), peerB); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Lookup("svcB"); err == nil {
		t.Fatal("tombstone did not propagate")
	}
}

func TestGossiperLoop(t *testing.T) {
	regA, srvA := serve(t, newEchoService(t, "svcA", "test.Echo"))
	regB, srvB := serve(t, newEchoService(t, "svcB", "test.Echo"))
	_ = regB
	g := NewGossiper(regA, srvA.Addr(), srvB.Addr())
	g.Start(5 * time.Millisecond)
	defer g.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := regA.Lookup("svcB"); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("gossiper never propagated svcB")
}

func TestNetBinding(t *testing.T) {
	ctx := context.Background()
	b := &Binding{}
	if b.Protocol() != Protocol {
		t.Fatal("protocol name")
	}
	inner := b.Bind(newEchoService(t, "inner", "test.Echo"))
	// outer's handler calls inner through its own bound invoker: a
	// nested hop, each side over a connection of its own.
	outerSvc := core.NewService("outer", echoContract("test.Outer"))
	outerSvc.Handle("echo", func(ctx context.Context, req any) (any, error) {
		out, err := inner.Invoke(ctx, "echo", req)
		if err != nil {
			return nil, err
		}
		return "outer:" + out.(string), nil
	})
	if err := outerSvc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	outer := b.Bind(outerSvc)

	out, err := inner.Invoke(ctx, "echo", "x")
	if err != nil || out != "inner:x" {
		t.Fatalf("bound invoke = %v, %v", out, err)
	}
	out, err = outer.Invoke(ctx, "echo", "y")
	if err != nil || out != "outer:inner:y" {
		t.Fatalf("nested bound invoke = %v, %v", out, err)
	}
	if got := b.Calls(); got != 3 {
		t.Fatalf("Calls() = %d, want 3 (one direct, two nested)", got)
	}
	if _, err := inner.Invoke(ctx, "nope", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown op over the wire: err = %v, want ErrRemote", err)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: err = %v, want ErrClosed", err)
	}
}
