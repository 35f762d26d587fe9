package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Kernel errors.
var (
	// ErrAlreadyDeployed is returned when deploying a component whose
	// name is already live.
	ErrAlreadyDeployed = errors.New("core: component already deployed")
)

// Kernel hosts a running SBDMS architecture: it owns the registry,
// repository, resource manager, event bus and coordinator, and drives
// the two phases of Section 3.3 — the setup phase (process composition
// and service configuration) and the operational phase (monitoring and
// reconfiguration).
type Kernel struct {
	bus       *EventBus
	registry  *Registry
	repo      *Repository
	resources *ResourceManager
	coord     *Coordinator

	mu       sync.Mutex
	deployed []*Component // in start order, for reverse-order stop
	byName   map[string]*Component
	started  bool
}

// eventHistory is how many events the kernel's bus retains.
const eventHistory = 1024

// KernelOption customises kernel construction.
type KernelOption func(*kernelOptions)

type kernelOptions struct {
	coordCfg CoordinatorConfig
}

// WithCoordinatorConfig overrides the coordinator configuration.
func WithCoordinatorConfig(cfg CoordinatorConfig) KernelOption {
	return func(o *kernelOptions) { o.coordCfg = cfg }
}

// NewKernel assembles a kernel with its coordinator registered in the
// registry (the coordinator is a service like any other).
func NewKernel(opts ...KernelOption) *Kernel {
	o := kernelOptions{coordCfg: DefaultCoordinatorConfig()}
	for _, f := range opts {
		f(&o)
	}
	bus := NewEventBus(eventHistory)
	reg := NewRegistry(bus)
	repo := NewRepository()
	rm := NewResourceManager(bus)
	k := &Kernel{
		bus:       bus,
		registry:  reg,
		repo:      repo,
		resources: rm,
		byName:    make(map[string]*Component),
	}
	k.coord = NewCoordinator("coordinator", o.coordCfg, reg, repo, rm, bus)
	return k
}

// Registry returns the kernel's service registry.
func (k *Kernel) Registry() *Registry { return k.registry }

// Repository returns the kernel's service repository.
func (k *Kernel) Repository() *Repository { return k.repo }

// Bus returns the kernel's event bus.
func (k *Kernel) Bus() *EventBus { return k.bus }

// Coordinator returns the kernel coordinator service.
func (k *Kernel) Coordinator() *Coordinator { return k.coord }

// Deploy runs the setup phase for a composite: components are
// instantiated depth-first in declaration order, their contracts are
// stored in the repository, instances started, registered, and their
// references placed under coordinator management.
func (k *Kernel) Deploy(ctx context.Context, comp *Composite) error {
	return comp.Walk(func(path string, c *Component) error {
		if err := k.deployComponent(ctx, c, comp.Properties); err != nil {
			return fmt.Errorf("core: deploying %s: %w", path, err)
		}
		return nil
	})
}

// DeployComponent deploys a single component at runtime — flexibility
// by extension (Figure 5): "the user creates the required component and
// then publishes the desired interfaces as services in the
// architecture". The running system is not restarted.
func (k *Kernel) DeployComponent(ctx context.Context, c *Component) error {
	return k.deployComponent(ctx, c, nil)
}

func (k *Kernel) deployComponent(ctx context.Context, c *Component, compositeProps map[string]string) error {
	k.mu.Lock()
	if _, dup := k.byName[c.Name]; dup {
		k.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyDeployed, c.Name)
	}
	k.mu.Unlock()

	svc, err := c.instantiate(k.registry, compositeProps)
	if err != nil {
		return err
	}
	if err := k.repo.PutContract(svc.Contract()); err != nil {
		return fmt.Errorf("core: storing contract for %s: %w", c.Name, err)
	}
	if err := svc.Start(ctx); err != nil {
		return err
	}
	if err := k.registry.RegisterService(svc, c.Tags); err != nil {
		_ = svc.Stop(ctx)
		return err
	}
	for _, ref := range c.refs {
		k.coord.Manage(ref)
	}
	k.mu.Lock()
	k.deployed = append(k.deployed, c)
	k.byName[c.Name] = c
	k.mu.Unlock()
	k.resources.SetServiceState(svc.Name(), StateRunning)
	k.bus.Publish(Event{Type: EventComponentDeployed, Subject: c.Name})
	return nil
}

// Start enters the operational phase: the coordinator is registered and
// started, beginning monitoring and reconfiguration.
func (k *Kernel) Start(ctx context.Context) error {
	k.mu.Lock()
	if k.started {
		k.mu.Unlock()
		return nil
	}
	k.started = true
	k.mu.Unlock()
	if err := k.coord.Start(ctx); err != nil {
		return err
	}
	if _, err := k.registry.Lookup(k.coord.Name()); err != nil {
		if err := k.registry.RegisterService(k.coord, nil); err != nil {
			return err
		}
	}
	return nil
}

// Stop leaves the operational phase and stops all deployed services in
// reverse deployment order.
func (k *Kernel) Stop(ctx context.Context) error {
	k.mu.Lock()
	deployed := append([]*Component(nil), k.deployed...)
	k.started = false
	k.mu.Unlock()
	var firstErr error
	if err := k.coord.Stop(ctx); err != nil {
		firstErr = err
	}
	for i := len(deployed) - 1; i >= 0; i-- {
		svc := deployed[i].Instance()
		if svc == nil {
			continue
		}
		if err := svc.Stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Ref creates a late-bound reference resolved through the kernel
// registry and places it under coordinator management.
func (k *Kernel) Ref(iface string, sel Selector) *Ref {
	r := NewRef(k.registry, iface, sel)
	k.coord.Manage(r)
	return r
}
