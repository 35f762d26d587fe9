package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// echoImpl builds components whose service echoes with its name,
// optionally calling through a reference first (to exercise wiring).
func echoImpl(name, iface string) Implementation {
	return ImplementationFunc(func(props *Properties, refs map[string]*Ref) (Service, error) {
		s := NewService(name, echoContract(iface))
		prefix := props.String("prefix", name)
		s.Handle("echo", func(ctx context.Context, req any) (any, error) {
			str, _ := req.(string)
			if up, ok := refs["upstream"]; ok {
				out, err := up.Invoke(ctx, "echo", str)
				if err != nil {
					return nil, err
				}
				str, _ = out.(string)
			}
			return prefix + ":" + str, nil
		})
		s.Handle("fail", func(ctx context.Context, req any) (any, error) { return nil, errors.New("boom") })
		return WithPing(s), nil
	})
}

func newTestKernel() *Kernel {
	return NewKernel(WithCoordinatorConfig(CoordinatorConfig{
		ProbePeriod:  0, // drive probes explicitly in tests
		ProbeTimeout: 100 * time.Millisecond,
	}))
}

func TestKernelDeployAndInvoke(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	comp := NewComposite("app").
		Add(&Component{Name: "store", Impl: echoImpl("store", "test.Store")}).
		Add(&Component{
			Name: "front",
			Impl: echoImpl("front", "test.Front"),
			References: []Reference{
				{Name: "upstream", Interface: "test.Store", Required: true},
			},
		})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer k.Stop(ctx)

	ref := k.Ref("test.Front", nil)
	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil {
		t.Fatal(err)
	}
	if out != "front:store:x" {
		t.Fatalf("out = %v", out)
	}
	if got := k.deployed; len(got) != 2 || got[0].Name != "store" {
		t.Fatalf("deployed = %v", got)
	}
	if _, ok := k.byName["front"]; !ok {
		t.Fatal("front not recorded as deployed")
	}
	// Contracts stored in repository during setup phase.
	if _, err := k.Repository().GetContract("test.Store"); err != nil {
		t.Fatal("repository must hold deployed contracts")
	}
}

func TestKernelRequiredReferenceFailsDeploy(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	comp := NewComposite("app").Add(&Component{
		Name: "front",
		Impl: echoImpl("front", "test.Front"),
		References: []Reference{
			{Name: "upstream", Interface: "test.Missing", Required: true},
		},
	})
	err := k.Deploy(ctx, comp)
	if !errors.Is(err, ErrUnresolvedReference) {
		t.Fatalf("err = %v, want ErrUnresolvedReference", err)
	}
}

func TestKernelOptionalReferenceLateBinds(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	front := &Component{
		Name: "front",
		Impl: echoImpl("front", "test.Front"),
		References: []Reference{
			{Name: "upstream", Interface: "test.Store", Required: false},
		},
	}
	if err := k.Deploy(ctx, NewComposite("app").Add(front)); err != nil {
		t.Fatal(err)
	}
	ref := k.Ref("test.Front", nil)
	if _, err := ref.Invoke(ctx, "echo", "x"); err == nil {
		t.Fatal("call should fail while upstream is missing")
	}
	// Deploy the provider afterwards — flexibility by extension.
	if err := k.DeployComponent(ctx, &Component{Name: "store", Impl: echoImpl("store", "test.Store")}); err != nil {
		t.Fatal(err)
	}
	out, err := ref.Invoke(ctx, "echo", "x")
	if err != nil || out != "front:store:x" {
		t.Fatalf("after late deploy: %v, %v", out, err)
	}
}

func TestKernelDuplicateDeploy(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	c := &Component{Name: "a", Impl: echoImpl("a", "test.A")}
	if err := k.DeployComponent(ctx, c); err != nil {
		t.Fatal(err)
	}
	err := k.DeployComponent(ctx, &Component{Name: "a", Impl: echoImpl("a2", "test.A")})
	if !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("err = %v", err)
	}
}

func TestKernelCompositeProperties(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	comp := NewComposite("app")
	comp.Properties = map[string]string{"prefix": "composite"}
	comp.Add(&Component{Name: "a", Impl: echoImpl("a", "test.A")})
	comp.Add(&Component{Name: "b", Impl: echoImpl("b", "test.B"), Properties: map[string]string{"prefix": "own"}})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	refA := k.Ref("test.A", nil)
	if out, _ := refA.Invoke(ctx, "echo", "x"); out != "composite:x" {
		t.Fatalf("composite property not applied: %v", out)
	}
	refB := k.Ref("test.B", nil)
	if out, _ := refB.Invoke(ctx, "echo", "x"); out != "own:x" {
		t.Fatalf("component property must win: %v", out)
	}
}

func TestKernelNestedComposites(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	storage := NewComposite("storage").Add(&Component{Name: "disk", Impl: echoImpl("disk", "test.Disk")})
	data := NewComposite("data").Add(&Component{
		Name: "table", Impl: echoImpl("table", "test.Table"),
		References: []Reference{{Name: "upstream", Interface: "test.Disk", Required: true}},
	})
	root := NewComposite("root").AddComposite(storage).AddComposite(data)
	if err := k.Deploy(ctx, root); err != nil {
		t.Fatal(err)
	}
	out, err := k.Ref("test.Table", nil).Invoke(ctx, "echo", "q")
	if err != nil || out != "table:disk:q" {
		t.Fatalf("nested invoke = %v, %v", out, err)
	}
	var paths []string
	_ = root.Walk(func(p string, c *Component) error { paths = append(paths, p); return nil })
	if len(paths) != 2 || paths[0] != "root/storage/disk" {
		t.Fatalf("Walk paths = %v", paths)
	}
}

func TestKernelStopReversesOrder(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	var stopped []string
	mk := func(name string) Implementation {
		return ImplementationFunc(func(props *Properties, refs map[string]*Ref) (Service, error) {
			s := NewService(name, echoContract("test."+name))
			s.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
			s.Handle("fail", func(ctx context.Context, req any) (any, error) { return nil, nil })
			s.OnStop(func(ctx context.Context) error { stopped = append(stopped, name); return nil })
			return s, nil
		})
	}
	comp := NewComposite("app").
		Add(&Component{Name: "first", Impl: mk("first")}).
		Add(&Component{Name: "second", Impl: mk("second")})
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := k.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if len(stopped) != 2 || stopped[0] != "second" || stopped[1] != "first" {
		t.Fatalf("stop order = %v, want [second first]", stopped)
	}
}

func TestKernelDeployEvents(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	if err := k.DeployComponent(ctx, &Component{Name: "a", Impl: echoImpl("a", "test.A")}); err != nil {
		t.Fatal(err)
	}
	counts := k.Bus().CountByType()
	if counts[EventComponentDeployed] != 1 {
		t.Fatalf("event counts = %v", counts)
	}
}

func TestKernelManyComponents(t *testing.T) {
	ctx := context.Background()
	k := newTestKernel()
	comp := NewComposite("many")
	for i := 0; i < 50; i++ {
		comp.Add(&Component{Name: fmt.Sprintf("c%02d", i), Impl: echoImpl(fmt.Sprintf("c%02d", i), "test.Many")})
	}
	if err := k.Deploy(ctx, comp); err != nil {
		t.Fatal(err)
	}
	if got := len(k.Registry().Discover("test.Many")); got != 50 {
		t.Fatalf("providers = %d", got)
	}
}
