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
// repository, resource manager, event bus, workflow set and coordinator,
// and drives the two phases of Section 3.3 — the setup phase (process
// composition and service configuration) and the operational phase
// (monitoring and reconfiguration).
type Kernel struct {
	bus       *EventBus
	registry  *Registry
	repo      *Repository
	resources *ResourceManager
	workflows *WorkflowSet
	coord     *Coordinator
	arch      *Properties

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
	coordCfg  CoordinatorConfig
	coordName string
}

// WithCoordinatorConfig overrides the coordinator configuration.
func WithCoordinatorConfig(cfg CoordinatorConfig) KernelOption {
	return func(o *kernelOptions) { o.coordCfg = cfg }
}

// WithCoordinatorName names the kernel coordinator service.
func WithCoordinatorName(name string) KernelOption {
	return func(o *kernelOptions) { o.coordName = name }
}

// NewKernel assembles a kernel with its coordinator registered in the
// registry (the coordinator is a service like any other).
func NewKernel(opts ...KernelOption) *Kernel {
	o := kernelOptions{coordCfg: DefaultCoordinatorConfig(), coordName: "coordinator"}
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
		workflows: NewWorkflowSet(),
		arch:      NewProperties(),
		byName:    make(map[string]*Component),
	}
	k.coord = NewCoordinator(o.coordName, o.coordCfg, reg, repo, rm, bus)
	return k
}

// Registry returns the kernel's service registry.
func (k *Kernel) Registry() *Registry { return k.registry }

// Repository returns the kernel's service repository.
func (k *Kernel) Repository() *Repository { return k.repo }

// Resources returns the kernel's resource manager.
func (k *Kernel) Resources() *ResourceManager { return k.resources }

// Bus returns the kernel's event bus.
func (k *Kernel) Bus() *EventBus { return k.bus }

// Workflows returns the kernel's workflow set.
func (k *Kernel) Workflows() *WorkflowSet { return k.workflows }

// Coordinator returns the kernel coordinator service.
func (k *Kernel) Coordinator() *Coordinator { return k.coord }

// Arch returns the architecture properties (Section 3.6), settable by
// users and monitoring services.
func (k *Kernel) Arch() *Properties { return k.arch }

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

	arch := k.arch.Clone()
	for kk, v := range compositeProps {
		if _, set := c.Properties[kk]; !set {
			arch.Set(kk, v)
		}
	}
	svc, err := c.instantiate(k.registry, arch)
	if err != nil {
		return err
	}
	// Policy preconditions gate deployment against architecture state.
	if violated, ok := k.checkPolicy(svc.Contract()); !ok {
		return fmt.Errorf("core: component %s policy precondition violated: %s %s %s",
			c.Name, violated.Property, violated.Op, violated.Value)
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

func (k *Kernel) checkPolicy(c *Contract) (Assertion, bool) {
	if c == nil {
		return Assertion{}, true
	}
	return k.arch.CheckPreconditions(c.Policy)
}

// Undeploy stops and deregisters a deployed component's service. When
// the service's policy marks it disableable, this is how small-footprint
// profiles shed functionality (Section 4).
func (k *Kernel) Undeploy(ctx context.Context, name string) error {
	k.mu.Lock()
	c, ok := k.byName[name]
	if ok {
		delete(k.byName, name)
		for i, d := range k.deployed {
			if d == c {
				k.deployed = append(k.deployed[:i], k.deployed[i+1:]...)
				break
			}
		}
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: component %s", ErrNotFound, name)
	}
	svc := c.Instance()
	if svc != nil {
		_ = k.registry.Deregister(svc.Name())
		if err := svc.Stop(ctx); err != nil {
			return err
		}
		k.resources.SetServiceState(svc.Name(), StateStopped)
	}
	k.bus.Publish(Event{Type: EventComponentUndeployed, Subject: name})
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

// Deployed returns the names of deployed components in start order.
func (k *Kernel) Deployed() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, len(k.deployed))
	for i, c := range k.deployed {
		out[i] = c.Name
	}
	return out
}

// Component returns a deployed component by name.
func (k *Kernel) Component(name string) (*Component, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.byName[name]
	return c, ok
}

// Ref creates a late-bound reference resolved through the kernel
// registry and places it under coordinator management.
func (k *Kernel) Ref(iface string, sel Selector) *Ref {
	r := NewRef(k.registry, iface, sel)
	k.coord.Manage(r)
	return r
}
