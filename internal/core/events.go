package core

import (
	"sync"
	"time"
)

// EventType classifies kernel events. Coordinator services subscribe to
// the event bus and react to architectural changes (Section 3.3:
// "coordinator services monitor architectural changes and service
// properties").
type EventType string

// Kernel event types.
const (
	EventServiceRegistered   EventType = "service.registered"
	EventServiceDeregistered EventType = "service.deregistered"
	EventServiceFailed       EventType = "service.failed"
	EventServiceDegraded     EventType = "service.degraded"
	EventServiceRecovered    EventType = "service.recovered"
	EventLowResources        EventType = "resource.low"
	EventAdaptorCreated      EventType = "adaptor.created"
	EventReconfigured        EventType = "architecture.reconfigured"
	EventComponentDeployed   EventType = "component.deployed"
	EventWorkflowSwitched    EventType = "workflow.switched"
)

// Event is a notification flowing through the kernel's event bus.
type Event struct {
	Type    EventType
	Subject string            // service/component/resource name
	Detail  string            // human-readable detail
	Attrs   map[string]string // machine-readable attributes
	Time    time.Time
}

// EventBus is a lightweight publish/subscribe bus. Subscribers receive
// events asynchronously on their own buffered channels; a slow
// subscriber drops its oldest pending events rather than blocking
// publishers, because kernel progress must never depend on observers.
type EventBus struct {
	mu     sync.RWMutex
	subs   map[int]*busSub
	nextID int
	hist   []Event
	histN  int
}

type busSub struct {
	ch     chan Event
	filter func(Event) bool
}

// NewEventBus creates a bus retaining the last histN events for
// CountByType (0 keeps no history).
func NewEventBus(histN int) *EventBus {
	return &EventBus{subs: make(map[int]*busSub), histN: histN}
}

// Publish delivers an event to all matching subscribers. The event time
// is stamped if unset.
func (b *EventBus) Publish(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	if b.histN > 0 {
		b.hist = append(b.hist, ev)
		if len(b.hist) > b.histN {
			b.hist = b.hist[len(b.hist)-b.histN:]
		}
	}
	subs := make([]*busSub, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()

	for _, s := range subs {
		if s.filter != nil && !s.filter(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			// Drop the oldest pending event to make room; observers
			// must never stall the kernel.
			select {
			case <-s.ch:
			default:
			}
			select {
			case s.ch <- ev:
			default:
			}
		}
	}
}

// Subscribe registers a subscriber with an optional filter. The
// returned cancel function removes the subscription and closes the
// channel.
func (b *EventBus) Subscribe(buf int, filter func(Event) bool) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	s := &busSub{ch: make(chan Event, buf), filter: filter}
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.subs[id] = s
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(s.ch)
		}
		b.mu.Unlock()
	}
	return s.ch, cancel
}

// SubscribeTypes is a convenience wrapper filtering by event types.
func (b *EventBus) SubscribeTypes(buf int, types ...EventType) (<-chan Event, func()) {
	set := make(map[EventType]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return b.Subscribe(buf, func(ev Event) bool { return len(set) == 0 || set[ev.Type] })
}

// CountByType tallies retained history events by type; used by tests
// and the experiment harness to assert reconfiguration behaviour.
func (b *EventBus) CountByType() map[EventType]int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[EventType]int)
	for _, ev := range b.hist {
		out[ev.Type]++
	}
	return out
}
