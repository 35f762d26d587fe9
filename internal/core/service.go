package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// State is the lifecycle state of a service. Resource management
// processes keep track of these "service working states" (Section 3.1).
type State int32

// Service lifecycle states.
const (
	StateCreated State = iota
	StateStarting
	StateRunning
	StateDegraded
	StateStopping
	StateStopped
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateDegraded:
		return "degraded"
	case StateStopping:
		return "stopping"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Errors returned by the service runtime.
var (
	// ErrUnknownOp is returned when a service is invoked with an
	// operation its contract does not declare.
	ErrUnknownOp = errors.New("core: unknown operation")
	// ErrNotRunning is returned when a service is invoked outside the
	// running or degraded states.
	ErrNotRunning = errors.New("core: service not running")
)

// Service is the atomic architectural unit: a named provider of a
// contract, invocable only through Invoke. Implementations keep their
// internals private; callers interact purely via the contract.
type Service interface {
	Invoker
	// Name is the unique instance name of this service.
	Name() string
	// Contract describes the interface this service provides.
	Contract() *Contract
	// Start moves the service to running. It must be idempotent.
	Start(ctx context.Context) error
	// Stop moves the service to stopped, releasing resources.
	Stop(ctx context.Context) error
	// State reports the current lifecycle state.
	State() State
}

// BaseService is the standard Service implementation used throughout
// SBDMS. It dispatches operations to registered handlers and tracks
// lifecycle state atomically.
type BaseService struct {
	name     string
	contract *Contract
	state    atomic.Int32

	mu       sync.RWMutex
	handlers map[string]Handler

	onStart func(ctx context.Context) error
	onStop  func(ctx context.Context) error
}

// NewService creates a service with the given instance name and
// contract. Handlers are attached with Handle; lifecycle hooks with
// OnStart and OnStop.
func NewService(name string, contract *Contract) *BaseService {
	s := &BaseService{
		name:     name,
		contract: contract,
		handlers: make(map[string]Handler),
	}
	s.state.Store(int32(StateCreated))
	return s
}

// Name implements Service.
func (s *BaseService) Name() string { return s.name }

// Contract implements Service.
func (s *BaseService) Contract() *Contract { return s.contract }

// State implements Service.
func (s *BaseService) State() State { return State(s.state.Load()) }

// SetState forces the lifecycle state. It is exported for coordinator
// services that mark providers degraded or failed based on monitoring.
func (s *BaseService) SetState(st State) { s.state.Store(int32(st)) }

// Handle registers the handler for an operation. It panics if the
// operation is not declared in the contract, which catches wiring bugs
// at composition time rather than first invocation.
func (s *BaseService) Handle(op string, h Handler) *BaseService {
	if s.contract != nil {
		if _, ok := s.contract.Op(op); !ok {
			panic(fmt.Sprintf("core: service %s: handler for undeclared operation %q", s.name, op))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = h
	return s
}

// OnStart registers a hook run during Start.
func (s *BaseService) OnStart(f func(ctx context.Context) error) *BaseService {
	s.onStart = f
	return s
}

// OnStop registers a hook run during Stop.
func (s *BaseService) OnStop(f func(ctx context.Context) error) *BaseService {
	s.onStop = f
	return s
}

// Start implements Service.
func (s *BaseService) Start(ctx context.Context) error {
	st := s.State()
	if st == StateRunning || st == StateDegraded {
		return nil
	}
	s.state.Store(int32(StateStarting))
	if s.onStart != nil {
		if err := s.onStart(ctx); err != nil {
			s.state.Store(int32(StateFailed))
			return fmt.Errorf("core: starting service %s: %w", s.name, err)
		}
	}
	s.state.Store(int32(StateRunning))
	return nil
}

// Stop implements Service.
func (s *BaseService) Stop(ctx context.Context) error {
	if s.State() == StateStopped {
		return nil
	}
	s.state.Store(int32(StateStopping))
	if s.onStop != nil {
		if err := s.onStop(ctx); err != nil {
			s.state.Store(int32(StateFailed))
			return fmt.Errorf("core: stopping service %s: %w", s.name, err)
		}
	}
	s.state.Store(int32(StateStopped))
	return nil
}

// Invoke implements Invoker. It rejects calls outside running/degraded
// states and dispatches to the operation's handler.
func (s *BaseService) Invoke(ctx context.Context, op string, req any) (any, error) {
	switch s.State() {
	case StateRunning, StateDegraded:
	default:
		return nil, fmt.Errorf("service %s, operation %s: %w (state %s)", s.name, op, ErrNotRunning, s.State())
	}
	s.mu.RLock()
	h := s.handlers[op]
	s.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("service %s: %w: %q", s.name, ErrUnknownOp, op)
	}
	return h(ctx, req)
}

// Ping is the conventional health-check operation name. Services built
// with NewPingableService answer it automatically.
const PingOp = "core.ping"

// PingSpec is the OpSpec of the conventional health-check operation.
var PingSpec = OpSpec{Name: PingOp, In: "nil", Out: "string", Semantic: "core.ping", Doc: "liveness probe"}

// WithPing appends the conventional ping operation to a contract and
// registers its handler on the service. Coordinators use it to probe
// liveness without knowing anything else about the service.
func WithPing(s *BaseService) *BaseService {
	if _, ok := s.contract.Op(PingOp); !ok {
		s.contract.Operations = append(s.contract.Operations, PingSpec)
	}
	return s.Handle(PingOp, func(ctx context.Context, req any) (any, error) {
		return "pong:" + s.name, nil
	})
}
