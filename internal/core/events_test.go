package core

import (
	"context"
	"testing"
)

// retained counts the events a bus still holds in its history.
func retained(bus *EventBus) int {
	n := 0
	for _, c := range bus.CountByType() {
		n += c
	}
	return n
}

func TestEventBusPubSub(t *testing.T) {
	bus := NewEventBus(8)
	ch, cancel := bus.SubscribeTypes(4, EventReconfigured)
	defer cancel()
	bus.Publish(Event{Type: EventServiceFailed, Subject: "ignored"})
	bus.Publish(Event{Type: EventReconfigured, Subject: "arch"})
	ev := <-ch
	if ev.Type != EventReconfigured || ev.Subject != "arch" {
		t.Fatalf("ev = %+v", ev)
	}
	if ev.Time.IsZero() {
		t.Fatal("publish must stamp time")
	}
	if got := retained(bus); got != 2 {
		t.Fatalf("history = %d", got)
	}
}

func TestEventBusSlowSubscriberDoesNotBlock(t *testing.T) {
	bus := NewEventBus(0)
	ch, cancel := bus.Subscribe(2, nil)
	defer cancel()
	// Publish more than the buffer; publisher must not block and the
	// newest events win.
	for i := 0; i < 10; i++ {
		bus.Publish(Event{Type: EventReconfigured, Detail: string(rune('0' + i))})
	}
	drained := 0
	for {
		select {
		case <-ch:
			drained++
			continue
		default:
		}
		break
	}
	if drained == 0 || drained > 2 {
		t.Fatalf("drained = %d, want 1..2", drained)
	}
}

func TestEventBusHistoryBound(t *testing.T) {
	bus := NewEventBus(4)
	for i := 0; i < 20; i++ {
		bus.Publish(Event{Type: EventReconfigured})
	}
	if got := retained(bus); got != 4 {
		t.Fatalf("history = %d, want 4", got)
	}
}

func TestEventBusCancelIdempotent(t *testing.T) {
	bus := NewEventBus(0)
	_, cancel := bus.Subscribe(1, nil)
	cancel()
	cancel() // must not panic
}

func TestPropertiesTypedAccess(t *testing.T) {
	p := NewProperties()
	p.Set("s", "str")
	if v, ok := p.Get("s"); !ok || v != "str" || p.String("s", "") != "str" {
		t.Fatal("getters broken")
	}
	if _, ok := p.Get("missing"); ok || p.String("missing", "def") != "def" {
		t.Fatal("defaults broken")
	}
	p.Set("s", "changed")
	if p.String("s", "") != "changed" {
		t.Fatal("Set must overwrite")
	}
}

// countingBinding is a test binding that counts the calls routed
// through it.
type countingBinding struct{ calls *int }

func (b countingBinding) Bind(target Invoker) Invoker {
	return InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
		*b.calls++
		return target.Invoke(ctx, op, req)
	})
}

func (countingBinding) Protocol() string { return "counting" }

func TestBindings(t *testing.T) {
	ctx := context.Background()
	s := newEchoService(t, "svc", "test.Echo")
	var calls int
	bound := BindService(s, countingBinding{&calls})
	out, err := bound.Invoke(ctx, "echo", "x")
	if err != nil || out != "svc:x" {
		t.Fatalf("bound invoke: %v, %v", out, err)
	}
	if calls != 1 {
		t.Fatalf("binding saw %d calls, want 1", calls)
	}
	// Lifecycle methods pass through to the service itself.
	if bound.Name() != "svc" || bound.State() != StateRunning {
		t.Fatalf("bound service = %s in state %v", bound.Name(), bound.State())
	}
}
