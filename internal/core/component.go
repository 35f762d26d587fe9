package core

import (
	"errors"
	"fmt"
)

// Component model errors.
var (
	// ErrUnresolvedReference is returned when a required reference has
	// no provider at wiring time.
	ErrUnresolvedReference = errors.New("core: unresolved required reference")
)

// Reference declares a dependency of a component on some interface, in
// the SCA sense (Figure 3: "components use references" to describe
// dependencies on services provided by other components).
type Reference struct {
	// Name is the local reference name the implementation looks up.
	Name string
	// Interface is the required logical interface.
	Interface string
	// Selector chooses among providers; nil means SelectFirst.
	Selector Selector
	// Required references fail deployment when unresolvable; optional
	// ones yield a Ref that errors at call time until a provider shows
	// up (pure late binding).
	Required bool
}

// Implementation produces the service instance of a component. The SCA
// implementation element is technology-agnostic (Java, BPEL, composite,
// ...); here it is any Go value that can instantiate a Service given
// the component's properties and wired references.
type Implementation interface {
	Instantiate(props *Properties, refs map[string]*Ref) (Service, error)
}

// ImplementationFunc adapts a function to the Implementation interface.
type ImplementationFunc func(props *Properties, refs map[string]*Ref) (Service, error)

// Instantiate implements Implementation.
func (f ImplementationFunc) Instantiate(props *Properties, refs map[string]*Ref) (Service, error) {
	return f(props, refs)
}

// Component is the atomic SCA structure (Figure 3): an implementation
// plus exposed services, required references and configuration
// properties. Properties are read at instantiation, "allowing to
// customize its behaviour according to the current state of the
// architecture".
type Component struct {
	// Name is the unique component name within its composite.
	Name string
	// Impl instantiates the component's service.
	Impl Implementation
	// Properties configure the instance.
	Properties map[string]string
	// References declare dependencies wired at deployment.
	References []Reference
	// Tags are attached to the service registration (e.g. node
	// locality) for selector use.
	Tags map[string]string

	instance Service
	refs     map[string]*Ref
}

// Instance returns the instantiated service, or nil before deployment.
func (c *Component) Instance() Service { return c.instance }

// instantiate wires references against the registry and creates the
// service instance. The enclosing composite's properties are layered
// under the component's own, which win.
func (c *Component) instantiate(reg *Registry, compositeProps map[string]string) (Service, error) {
	if c.Impl == nil {
		return nil, fmt.Errorf("core: component %s has no implementation", c.Name)
	}
	props := NewProperties()
	for k, v := range compositeProps {
		props.Set(k, v)
	}
	for k, v := range c.Properties {
		props.Set(k, v)
	}
	refs := make(map[string]*Ref, len(c.References))
	for _, r := range c.References {
		ref := NewRef(reg, r.Interface, r.Selector)
		if r.Required {
			if _, err := ref.Resolve(); err != nil {
				return nil, fmt.Errorf("core: component %s reference %s: %w: %s",
					c.Name, r.Name, ErrUnresolvedReference, r.Interface)
			}
		}
		refs[r.Name] = ref
	}
	svc, err := c.Impl.Instantiate(props, refs)
	if err != nil {
		return nil, fmt.Errorf("core: instantiating component %s: %w", c.Name, err)
	}
	c.instance = svc
	c.refs = refs
	return svc, nil
}

// Composite combines components and nested composites into a larger
// structure (Figure 4: "Both components and composites can be
// recursively contained"). Deployment instantiates depth-first in
// declaration order, so substrate components should be declared before
// their dependents; late binding tolerates forward references for
// optional dependencies.
type Composite struct {
	Name       string
	Components []*Component
	Composites []*Composite
	// Properties apply to all contained components (overridden by
	// component-level properties).
	Properties map[string]string
}

// NewComposite creates an empty composite.
func NewComposite(name string) *Composite {
	return &Composite{Name: name}
}

// Add appends a component and returns the composite for chaining.
func (cp *Composite) Add(c *Component) *Composite {
	cp.Components = append(cp.Components, c)
	return cp
}

// AddComposite nests a child composite.
func (cp *Composite) AddComposite(child *Composite) *Composite {
	cp.Composites = append(cp.Composites, child)
	return cp
}

// Walk visits every component depth-first in deployment order.
func (cp *Composite) Walk(f func(path string, c *Component) error) error {
	for _, c := range cp.Components {
		if err := f(cp.Name+"/"+c.Name, c); err != nil {
			return err
		}
	}
	for _, child := range cp.Composites {
		if err := child.Walk(func(path string, c *Component) error {
			return f(cp.Name+"/"+path, c)
		}); err != nil {
			return err
		}
	}
	return nil
}
