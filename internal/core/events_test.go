package core

import (
	"context"
	"errors"
	"testing"
	"time"
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

func TestBindings(t *testing.T) {
	ctx := context.Background()
	s := newEchoService(t, "svc", "test.Echo")
	local := BindService(s, LocalBinding{})
	out, err := local.Invoke(ctx, "echo", "x")
	if err != nil || out != "svc:x" {
		t.Fatalf("local binding: %v, %v", out, err)
	}
	if (LocalBinding{}).Protocol() != "local" {
		t.Fatal("protocol name")
	}
	delayed := BindService(s, DelayBinding{Delay: 5 * time.Millisecond})
	start := time.Now()
	if _, err := delayed.Invoke(ctx, "echo", "x"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay binding must add latency")
	}
	// Context cancellation interrupts the delay.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := delayed.Invoke(cctx, "echo", "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
