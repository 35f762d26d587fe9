package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func echoContract(iface string) *Contract {
	return &Contract{
		Interface: iface,
		Operations: []OpSpec{
			{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"},
			{Name: "fail", In: "nil", Out: "nil", Semantic: "test.fail"},
		},
	}
}

func newEchoService(t testing.TB, name, iface string) *BaseService {
	t.Helper()
	s := NewService(name, echoContract(iface))
	s.Handle("echo", func(ctx context.Context, req any) (any, error) {
		str, ok := req.(string)
		if !ok {
			return nil, &RequestError{Op: "echo", Want: "string", Got: TypeName(req)}
		}
		return name + ":" + str, nil
	})
	s.Handle("fail", func(ctx context.Context, req any) (any, error) {
		return nil, errors.New("boom")
	})
	WithPing(s)
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	return s
}

func TestServiceLifecycle(t *testing.T) {
	ctx := context.Background()
	s := NewService("svc", echoContract("test.Echo"))
	s.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
	if got := s.State(); got != StateCreated {
		t.Fatalf("initial state = %v, want created", got)
	}
	if _, err := s.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("invoke before start: err = %v, want ErrNotRunning", err)
	}
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateRunning {
		t.Fatalf("state after start = %v", got)
	}
	if err := s.Start(ctx); err != nil {
		t.Fatalf("second start should be idempotent: %v", err)
	}
	out, err := s.Invoke(ctx, "echo", "x")
	if err != nil || out != "x" {
		t.Fatalf("invoke = (%v, %v), want (x, nil)", out, err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateStopped {
		t.Fatalf("state after stop = %v", got)
	}
	if _, err := s.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("invoke after stop: err = %v", err)
	}
}

func TestServiceStartHookFailure(t *testing.T) {
	s := NewService("svc", echoContract("test.Echo"))
	s.OnStart(func(ctx context.Context) error { return errors.New("no disk") })
	if err := s.Start(context.Background()); err == nil {
		t.Fatal("start should fail")
	}
	if s.State() != StateFailed {
		t.Fatalf("state = %v, want failed", s.State())
	}
}

func TestServiceUnknownOp(t *testing.T) {
	s := newEchoService(t, "svc", "test.Echo")
	_, err := s.Invoke(context.Background(), "nosuch", nil)
	if !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v, want ErrUnknownOp", err)
	}
}

func TestHandleUndeclaredOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undeclared operation handler")
		}
	}()
	s := NewService("svc", echoContract("test.Echo"))
	s.Handle("undeclared", func(ctx context.Context, req any) (any, error) { return nil, nil })
}

func TestWithPing(t *testing.T) {
	s := newEchoService(t, "pinger", "test.Echo")
	out, err := s.Invoke(context.Background(), PingOp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "pong:pinger" {
		t.Fatalf("ping = %v", out)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateCreated: "created", StateStarting: "starting", StateRunning: "running",
		StateDegraded: "degraded", StateStopping: "stopping", StateStopped: "stopped",
		StateFailed: "failed", State(99): "state(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestServiceConcurrentInvoke(t *testing.T) {
	ctx := context.Background()
	s := newEchoService(t, "svc", "test.Echo")
	var calls atomic.Uint64
	echo := s.handlers["echo"]
	s.Handle("echo", func(ctx context.Context, req any) (any, error) {
		calls.Add(1)
		return echo(ctx, req)
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				out, err := s.Invoke(ctx, "echo", fmt.Sprint(i))
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if out != fmt.Sprintf("svc:%d", i) {
					t.Errorf("out = %v", out)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 3200 {
		t.Fatalf("calls = %d, want 3200", got)
	}
}

// newIdentityService is a running test.Echo provider whose echo handler
// returns its request unchanged, so a call through it allocates
// nothing of its own.
func newIdentityService(t testing.TB) *BaseService {
	t.Helper()
	s := NewService("identity", echoContract("test.Echo"))
	s.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// An in-process BaseService.Invoke is one handler dispatch: state check,
// handler lookup, call. It must not allocate.
func TestServiceInvokeAllocs(t *testing.T) {
	ctx := context.Background()
	s := newIdentityService(t)
	var req any = "x"
	if n := testing.AllocsPerRun(1000, func() { _, _ = s.Invoke(ctx, "echo", req) }); n != 0 {
		t.Fatalf("BaseService.Invoke allocates %.1f per call, want 0", n)
	}
}
