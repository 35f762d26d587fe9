package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// deployEchoPair deploys two same-interface providers and returns the
// kernel plus a managed ref.
func deployEchoPair(t *testing.T) (*Kernel, *Ref) {
	t.Helper()
	ctx := context.Background()
	k := newTestKernel()
	comp := NewComposite("app").
		Add(&Component{Name: "primary", Impl: echoImpl("primary", "test.Echo")}).
		Add(&Component{Name: "standby", Impl: echoImpl("standby", "test.Echo")})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = k.Stop(ctx) })
	return k, k.Ref("test.Echo", nil)
}

// deployedService returns the running instance a kernel registered
// under name.
func deployedService(t *testing.T, k *Kernel, name string) *BaseService {
	t.Helper()
	reg, err := k.Registry().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return reg.Invoker.(*BaseService)
}

func TestCoordinatorSelectionOnFailure(t *testing.T) {
	ctx := context.Background()
	k, ref := deployEchoPair(t)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "primary:x" {
		t.Fatalf("initial provider = %v", out)
	}
	// Fail the primary; a probe sweep must remove it and selection must
	// switch to the backup without adaptation.
	deployedService(t, k, "primary").SetState(StateFailed)
	failed := k.Coordinator().ProbeOnce(ctx)
	if len(failed) != 1 || failed[0] != "primary" {
		t.Fatalf("failed = %v", failed)
	}
	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil || out != "standby:x" {
		t.Fatalf("after failover: %v, %v", out, err)
	}
	st := k.Coordinator().Status()
	if st.Switches == 0 {
		t.Fatalf("status = %+v, want a recorded switch", st)
	}
	if st.Adaptations != 0 {
		t.Fatal("selection must not create adaptors")
	}
}

func TestCoordinatorAdaptationOnFailure(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	// One provider of test.Echo plus a semantically-equivalent legacy
	// service with a different interface.
	comp := NewComposite("app").
		Add(&Component{Name: "primary", Impl: echoImpl("primary", "test.Echo")}).
		Add(&Component{Name: "legacy", Impl: ImplementationFunc(func(p *Properties, r map[string]*Ref) (Service, error) {
			s := NewService("legacy", legacyContract())
			s.Handle("reverberate", func(ctx context.Context, req any) (any, error) {
				return append([]byte("legacy:"), req.([]byte)...), nil
			})
			s.Handle("explode", func(ctx context.Context, req any) (any, error) {
				return nil, errors.New("legacy boom")
			})
			return WithPing(s), nil
		})})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer k.Stop(ctx)
	// Transformation schemas required for bridging string <-> []byte.
	k.Repository().PutTransform("string", "[]byte", func(v any) (any, error) { return []byte(v.(string)), nil })
	k.Repository().PutTransform("[]byte", "string", func(v any) (any, error) { return string(v.([]byte)), nil })

	ref := k.Ref("test.Echo", nil)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "primary:x" {
		t.Fatal("primary must serve first")
	}
	deployedService(t, k, "primary").SetState(StateFailed)
	k.Coordinator().ProbeOnce(ctx)

	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil {
		t.Fatalf("after adaptation: %v", err)
	}
	if out != "legacy:x" {
		t.Fatalf("out = %v, want legacy:x via adaptor", out)
	}
	st := k.Coordinator().Status()
	if st.Adaptations != 1 {
		t.Fatalf("adaptations = %d", st.Adaptations)
	}
	counts := k.Bus().CountByType()
	if counts[EventAdaptorCreated] != 1 {
		t.Fatalf("events = %v", counts)
	}
	// The adaptor is registered under the required interface.
	provs := k.Registry().Discover("test.Echo")
	if len(provs) != 1 || provs[0].Tags["adaptor"] != "true" {
		t.Fatalf("providers = %v", names(provs))
	}
}

func TestCoordinatorRepairNoCandidate(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	if err := k.DeployComponent(ctx, &Component{Name: "only", Impl: echoImpl("only", "test.Echo")}); err != nil {
		t.Fatal(err)
	}
	_ = k.Start(ctx)
	defer k.Stop(ctx)
	ref := k.Ref("test.Echo", nil)
	_ = ref
	deployedService(t, k, "only").SetState(StateFailed)
	k.Coordinator().ProbeOnce(ctx)
	// Nothing to adapt to: interface stays uncovered.
	if _, err := ref.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := k.Coordinator().Repair(ctx, "test.Echo"); !errors.Is(err, ErrNoAdaptation) {
		t.Fatalf("Repair err = %v", err)
	}
}

func TestCoordinatorRepairRefusesWhenCovered(t *testing.T) {
	ctx := context.Background()
	k, _ := deployEchoPair(t)
	if _, err := k.Coordinator().Repair(ctx, "test.Echo"); err == nil {
		t.Fatal("Repair must refuse when providers exist")
	}
}

func TestCoordinatorReleaseResources(t *testing.T) {
	ctx := context.Background()
	k, ref := deployEchoPair(t)
	coord := k.Coordinator()
	// Figure 6: a service asks the coordinator to free it from load.
	if _, err := coord.Invoke(ctx, OpReleaseResources, ReleaseResourcesRequest{Service: "primary"}); err != nil {
		t.Fatal(err)
	}
	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil || out != "standby:x" {
		t.Fatalf("after release: %v, %v", out, err)
	}
	st := coord.Status()
	if len(st.AvoidedSvcs) != 1 || st.AvoidedSvcs[0] != "primary" {
		t.Fatalf("status = %+v", st)
	}
	// Restore re-admits the primary.
	if _, err := coord.Invoke(ctx, OpReleaseResources, ReleaseResourcesRequest{Service: "primary", Restore: true}); err != nil {
		t.Fatal(err)
	}
	out, _ = ref.Invoke(ctx, "echo", "x")
	if out != "primary:x" {
		t.Fatalf("after restore: %v", out)
	}
	// Bad request type.
	if _, err := coord.Invoke(ctx, OpReleaseResources, 42); err == nil {
		t.Fatal("want request type error")
	}
}

func TestCoordinatorStatusOp(t *testing.T) {
	ctx := context.Background()
	k, _ := deployEchoPair(t)
	out, err := k.Coordinator().Invoke(ctx, OpCoordStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := out.(CoordStatus)
	if !ok || st.ManagedRefs == 0 {
		t.Fatalf("status = %#v", out)
	}
	if len(st.RequiredIfcs) == 0 || st.RequiredIfcs[0] != "test.Echo" {
		t.Fatalf("required = %v", st.RequiredIfcs)
	}
}

func TestCoordinatorOperationalLoopDetectsFailure(t *testing.T) {
	ctx := context.Background()
	k := NewKernel(WithCoordinatorConfig(CoordinatorConfig{
		ProbePeriod:  5 * time.Millisecond,
		ProbeTimeout: 50 * time.Millisecond,
	}))
	comp := NewComposite("app").
		Add(&Component{Name: "primary", Impl: echoImpl("primary", "test.Echo")}).
		Add(&Component{Name: "standby", Impl: echoImpl("standby", "test.Echo")})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer k.Stop(ctx)
	ref := k.Ref("test.Echo", nil)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "primary:x" {
		t.Fatal("primary must serve first")
	}
	deployedService(t, k, "primary").SetState(StateFailed)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		out, err := ref.Invoke(ctx, "echo", "x")
		if err == nil && out == "standby:x" {
			return // operational phase handled the failure
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("operational loop did not fail over within 2s")
}

func TestCoordinatorLowResourceEventSteersLoad(t *testing.T) {
	ctx := context.Background()
	k := NewKernel(WithCoordinatorConfig(CoordinatorConfig{
		ProbePeriod:  5 * time.Millisecond,
		ProbeTimeout: 50 * time.Millisecond,
	}))
	comp := NewComposite("app").
		Add(&Component{Name: "primary", Impl: echoImpl("primary", "test.Echo")}).
		Add(&Component{Name: "standby", Impl: echoImpl("standby", "test.Echo")})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer k.Stop(ctx)
	ref := k.Ref("test.Echo", nil)
	if out, _ := ref.Invoke(ctx, "echo", "x"); out != "primary:x" {
		t.Fatal("primary must serve first")
	}
	// A monitoring service publishes a low-resource alert attributed to
	// the primary.
	k.Bus().Publish(Event{
		Type: EventLowResources, Subject: "memory",
		Attrs: map[string]string{"service": "primary"},
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		out, _ := ref.Invoke(ctx, "echo", "x")
		if out == "standby:x" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("low-resource alert did not steer load within 2s")
}

func TestResourceManagerServiceStates(t *testing.T) {
	bus := NewEventBus(32)
	rm := NewResourceManager(bus)
	rm.SetServiceState("svc", StateRunning)
	rm.SetServiceState("svc", StateDegraded)
	rm.SetServiceState("svc", StateDegraded) // no duplicate event
	rm.SetServiceState("svc", StateRunning)  // recovery
	rm.SetServiceState("svc", StateFailed)
	counts := bus.CountByType()
	if counts[EventServiceDegraded] != 1 || counts[EventServiceRecovered] != 1 || counts[EventServiceFailed] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if st, ok := rm.states["svc"]; !ok || st != StateFailed {
		t.Fatalf("state = %v, %v", st, ok)
	}
	if len(rm.states) != 1 {
		t.Fatalf("states = %v", rm.states)
	}
}
