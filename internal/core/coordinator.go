package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// CoordinatorConfig tunes a coordinator service.
type CoordinatorConfig struct {
	// ProbePeriod is the health-check interval of the operational
	// phase. Zero disables periodic probing (probes can still be run
	// explicitly with ProbeOnce).
	ProbePeriod time.Duration
	// ProbeTimeout bounds each individual liveness probe.
	ProbeTimeout time.Duration
	// AdaptorPrefix names generated adaptor services.
	AdaptorPrefix string
}

// DefaultCoordinatorConfig returns sensible defaults.
func DefaultCoordinatorConfig() CoordinatorConfig {
	return CoordinatorConfig{
		ProbePeriod:   50 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		AdaptorPrefix: "adaptor",
	}
}

// Coordinator is a coordinator service (Section 3.1): it monitors
// service activity, verifies the availability of services, and handles
// service reconfiguration — switching to alternate providers
// (flexibility by selection) or generating adaptor services around
// interface-incompatible substitutes (flexibility by adaptation).
//
// A Coordinator is itself a Service, exposing its capabilities through
// a contract like any other part of the architecture.
type Coordinator struct {
	*BaseService
	cfg       CoordinatorConfig
	registry  *Registry
	repo      *Repository
	resources *ResourceManager
	bus       *EventBus

	mu       sync.Mutex
	refs     []*Ref          // references under management, for avoidance steering
	required map[string]bool // interfaces that must keep a provider
	avoided  map[string]bool // provider names currently steered away from
	loopStop chan struct{}
	loopDone chan struct{}
	repairs  int // count of successful adaptations, for tests/experiments
	switches int // count of selection switches
}

// CoordinatorIface is the logical interface coordinators provide.
const CoordinatorIface = "sbdms.core.Coordinator"

// Coordinator operation names.
const (
	OpReleaseResources = "releaseResources"
	OpRepair           = "repair"
	OpCoordStatus      = "status"
)

// ReleaseResourcesRequest asks the coordinator to steer load away from
// a service that needs its resources back (Figure 6).
type ReleaseResourcesRequest struct {
	Service string
	// Restore undoes a previous release, re-admitting the service.
	Restore bool
}

// CoordStatus is the coordinator's status response.
type CoordStatus struct {
	ManagedRefs  int
	RequiredIfcs []string
	AvoidedSvcs  []string
	Adaptations  int
	Switches     int
}

// NewCoordinator creates a coordinator bound to the kernel's registry,
// repository, resource manager and event bus.
func NewCoordinator(name string, cfg CoordinatorConfig, reg *Registry, repo *Repository, rm *ResourceManager, bus *EventBus) *Coordinator {
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}
	if cfg.AdaptorPrefix == "" {
		cfg.AdaptorPrefix = "adaptor"
	}
	contract := &Contract{
		Interface: CoordinatorIface,
		Operations: []OpSpec{
			{Name: OpReleaseResources, In: "core.ReleaseResourcesRequest", Out: "bool", Semantic: "core.releaseResources",
				Doc: "steer load away from (or back to) a service"},
			{Name: OpRepair, In: "string", Out: "string", Semantic: "core.repair",
				Doc: "repair an interface that lost its provider"},
			{Name: OpCoordStatus, In: "nil", Out: "core.CoordStatus", Semantic: "core.status"},
		},
		Description: Description{Summary: "monitors services and reconfigures the architecture"},
		Quality:     Quality{LatencyClass: "memory", Availability: 0.9999},
	}
	c := &Coordinator{
		BaseService: NewService(name, contract),
		cfg:         cfg,
		registry:    reg,
		repo:        repo,
		resources:   rm,
		bus:         bus,
		required:    make(map[string]bool),
		avoided:     make(map[string]bool),
	}
	WithPing(c.BaseService)
	c.Handle(OpReleaseResources, func(ctx context.Context, req any) (any, error) {
		r, ok := req.(ReleaseResourcesRequest)
		if !ok {
			return nil, &RequestError{Op: OpReleaseResources, Want: "core.ReleaseResourcesRequest", Got: TypeName(req)}
		}
		if r.Restore {
			c.Readmit(r.Service)
		} else {
			c.StopUsing(r.Service)
		}
		return true, nil
	})
	c.Handle(OpRepair, func(ctx context.Context, req any) (any, error) {
		iface, ok := req.(string)
		if !ok {
			return nil, &RequestError{Op: OpRepair, Want: "string", Got: TypeName(req)}
		}
		return c.Repair(ctx, iface)
	})
	c.Handle(OpCoordStatus, func(ctx context.Context, req any) (any, error) {
		return c.Status(), nil
	})
	c.OnStart(func(ctx context.Context) error { c.startLoop(); return nil })
	c.OnStop(func(ctx context.Context) error { c.stopLoop(); return nil })
	return c
}

// Manage places a late-bound reference under coordinator management so
// that avoidance steering and invalidation reach it.
func (c *Coordinator) Manage(refs ...*Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range refs {
		if r == nil {
			continue
		}
		c.refs = append(c.refs, r)
		c.required[r.Interface()] = true
		// Apply existing avoidance decisions to newly managed refs.
		for name := range c.avoided {
			r.Avoid(name, true)
		}
	}
}

// StopUsing advises all managed references to avoid the named provider
// ("other services can be advised to stop using the service due to low
// resources", Section 3.7). Selection switches to alternates where they
// exist.
func (c *Coordinator) StopUsing(service string) {
	c.mu.Lock()
	if c.avoided[service] {
		c.mu.Unlock()
		return
	}
	c.avoided[service] = true
	refs := append([]*Ref(nil), c.refs...)
	c.switches++
	c.mu.Unlock()
	for _, r := range refs {
		r.Avoid(service, true)
	}
	c.publish(EventWorkflowSwitched, service, "load steered away (release resources)")
}

// Readmit reverses StopUsing.
func (c *Coordinator) Readmit(service string) {
	c.mu.Lock()
	if !c.avoided[service] {
		c.mu.Unlock()
		return
	}
	delete(c.avoided, service)
	refs := append([]*Ref(nil), c.refs...)
	c.mu.Unlock()
	for _, r := range refs {
		r.Avoid(service, false)
	}
	c.publish(EventWorkflowSwitched, service, "service readmitted")
}

// ProbeOnce performs a single health sweep: every live local
// registration is probed (service state, then ping when offered), and
// failures are handled via HandleFailure. It returns the names of
// services found failed.
func (c *Coordinator) ProbeOnce(ctx context.Context) []string {
	var failed []string
	for _, reg := range c.registry.All() {
		if reg.Invoker == nil {
			continue
		}
		healthy := true
		if svc, ok := reg.Invoker.(Service); ok {
			switch svc.State() {
			case StateRunning, StateDegraded:
			default:
				healthy = false
			}
		}
		if healthy {
			if _, ok := reg.Contract.Op(PingOp); ok {
				pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
				_, err := reg.Invoker.Invoke(pctx, PingOp, nil)
				cancel()
				if err != nil {
					healthy = false
				}
			}
		}
		if c.resources != nil {
			if healthy {
				c.resources.SetServiceState(reg.Name, StateRunning)
			} else {
				c.resources.SetServiceState(reg.Name, StateFailed)
			}
		}
		if !healthy {
			failed = append(failed, reg.Name)
			c.HandleFailure(ctx, reg)
		}
	}
	return failed
}

// HandleFailure reacts to a failed provider: the registration is
// removed, and if the failure leaves a required interface uncovered the
// coordinator attempts adaptation via Repair. With alternates present,
// reference self-healing covers the switch (flexibility by selection).
func (c *Coordinator) HandleFailure(ctx context.Context, reg *Registration) {
	_ = c.registry.Deregister(reg.Name)
	c.publish(EventServiceFailed, reg.Name, "removed after failed probe")
	c.invalidateRefs(reg.Interface)
	c.mu.Lock()
	needed := c.required[reg.Interface]
	c.mu.Unlock()
	if !needed {
		return
	}
	if len(c.registry.Discover(reg.Interface)) > 0 {
		c.mu.Lock()
		c.switches++
		c.mu.Unlock()
		c.publish(EventWorkflowSwitched, reg.Interface, "alternate provider selected for "+reg.Name)
		return
	}
	if _, err := c.Repair(ctx, reg.Interface); err != nil {
		c.publish(EventReconfigured, reg.Interface, "repair failed: "+err.Error())
	}
}

// Repair restores a provider for an interface that currently has none,
// by generating an adaptor service around some live service whose
// contract can be bridged (Figure 7: "adaptor services have to be
// created to mediate service interaction"). It returns the name of the
// registered adaptor.
func (c *Coordinator) Repair(ctx context.Context, iface string) (string, error) {
	if len(c.registry.Discover(iface)) > 0 {
		return "", fmt.Errorf("core: interface %s already has a provider", iface)
	}
	required, err := c.repo.GetContract(iface)
	if err != nil {
		return "", fmt.Errorf("core: repair %s: no schema in repository: %w", iface, err)
	}
	// Deterministic scan over live candidates.
	for _, cand := range c.registry.All() {
		if cand.Interface == iface || cand.Invoker == nil {
			continue
		}
		name := fmt.Sprintf("%s:%s-via-%s", c.cfg.AdaptorPrefix, iface, cand.Name)
		ad, aerr := GenerateAdaptor(name, required, cand.Contract, cand.Invoker, c.repo)
		if aerr != nil {
			continue
		}
		if rerr := c.registry.Register(&Registration{
			Name:      name,
			Interface: iface,
			Contract:  required,
			Invoker:   ad,
			Tags:      map[string]string{"adaptor": "true", "target": cand.Name},
		}); rerr != nil {
			return "", rerr
		}
		c.mu.Lock()
		c.repairs++
		c.mu.Unlock()
		c.invalidateRefs(iface)
		c.publish(EventAdaptorCreated, name, "adapts "+cand.Name+" to "+iface)
		c.publish(EventReconfigured, iface, "provider restored via adaptation")
		return name, nil
	}
	return "", fmt.Errorf("%w: interface %s", ErrNoAdaptation, iface)
}

// Status returns a snapshot of coordinator state.
func (c *Coordinator) Status() CoordStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordStatus{
		ManagedRefs: len(c.refs),
		Adaptations: c.repairs,
		Switches:    c.switches,
	}
	for i := range c.required {
		st.RequiredIfcs = append(st.RequiredIfcs, i)
	}
	sort.Strings(st.RequiredIfcs)
	for s := range c.avoided {
		st.AvoidedSvcs = append(st.AvoidedSvcs, s)
	}
	sort.Strings(st.AvoidedSvcs)
	return st
}

func (c *Coordinator) invalidateRefs(iface string) {
	c.mu.Lock()
	refs := append([]*Ref(nil), c.refs...)
	c.mu.Unlock()
	for _, r := range refs {
		if r.Interface() == iface {
			r.Invalidate()
		}
	}
}

func (c *Coordinator) startLoop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loopStop != nil || c.cfg.ProbePeriod <= 0 {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.loopStop, c.loopDone = stop, done

	var evCh <-chan Event
	var cancel func()
	if c.bus != nil {
		evCh, cancel = c.bus.SubscribeTypes(256, EventLowResources, EventServiceFailed)
	}
	go func() {
		defer close(done)
		if cancel != nil {
			defer cancel()
		}
		ticker := time.NewTicker(c.cfg.ProbePeriod)
		defer ticker.Stop()
		//lint:ignore ctxflow the probe loop is a background daemon with no caller; cancellation arrives via the stop channel, and each probe bounds itself with its own timeout
		ctx := context.Background()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.ProbeOnce(ctx)
			case ev, ok := <-evCh:
				if !ok {
					evCh = nil
					continue
				}
				c.handleEvent(ctx, ev)
			}
		}
	}()
}

func (c *Coordinator) handleEvent(ctx context.Context, ev Event) {
	switch ev.Type {
	case EventLowResources:
		// A resource ran low: if an owning service is identified, steer
		// load away from it so it can recover (Figure 6).
		if owner := ev.Attrs["service"]; owner != "" {
			c.StopUsing(owner)
		}
	case EventServiceFailed:
		if reg, err := c.registry.Lookup(ev.Subject); err == nil {
			c.HandleFailure(ctx, reg)
		}
	}
}

func (c *Coordinator) stopLoop() {
	c.mu.Lock()
	stop, done := c.loopStop, c.loopDone
	c.loopStop, c.loopDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (c *Coordinator) publish(t EventType, subject, detail string) {
	if c.bus != nil {
		c.bus.Publish(Event{Type: t, Subject: subject, Detail: detail})
	}
}
