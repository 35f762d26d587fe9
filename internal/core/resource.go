package core

import "sync"

// ResourceManager is the resource management process of Section 3.1:
// it tracks service working states and publishes their transitions
// (failure, degradation, recovery) on the event bus for coordinator
// services to act upon.
type ResourceManager struct {
	mu     sync.Mutex
	states map[string]State // service working states, by service name
	bus    *EventBus
}

// NewResourceManager creates a resource manager publishing to bus
// (which may be nil).
func NewResourceManager(bus *EventBus) *ResourceManager {
	return &ResourceManager{states: make(map[string]State), bus: bus}
}

// SetServiceState records a service working state and publishes
// degradation/failure/recovery events on transitions.
func (rm *ResourceManager) SetServiceState(service string, st State) {
	rm.mu.Lock()
	prev, had := rm.states[service]
	rm.states[service] = st
	rm.mu.Unlock()
	if had && prev == st {
		return
	}
	switch st {
	case StateFailed:
		rm.publish(EventServiceFailed, service, "state "+st.String())
	case StateDegraded:
		rm.publish(EventServiceDegraded, service, "state "+st.String())
	case StateRunning:
		if had && (prev == StateFailed || prev == StateDegraded) {
			rm.publish(EventServiceRecovered, service, "state "+st.String())
		}
	}
}

func (rm *ResourceManager) publish(t EventType, subject, detail string) {
	if rm.bus != nil {
		rm.bus.Publish(Event{Type: t, Subject: subject, Detail: detail})
	}
}
