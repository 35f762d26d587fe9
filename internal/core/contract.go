package core

// OpSpec describes one operation of a service interface: its name, the
// contract names of its input and output payloads, and an optional
// semantic tag. Semantic tags are the hook used by automatic adaptor
// generation (Section 3.6 of the paper): two operations with the same
// semantic tag are considered functionally equivalent even if their
// names and payload types differ.
type OpSpec struct {
	Name     string
	In       string
	Out      string
	Semantic string
	Doc      string
}

// Description is the descriptive part of a service contract: a human
// summary of what the service does.
type Description struct {
	Summary string
}

// Quality is the functional-quality description of a service
// (Section 3.5), advertised through the registry alongside the
// interface.
type Quality struct {
	// LatencyClass is a coarse cost class: "memory" < "disk" < "network".
	LatencyClass string
	// Availability is the advertised availability in [0,1].
	Availability float64
	// CostFactor is a relative cost weight; lower is preferred.
	CostFactor float64
}

// Contract is the service contract of Section 3.2: interface name,
// operations, description and quality. Contracts are the only
// knowledge callers have about a service; implementations stay hidden.
type Contract struct {
	// Interface is the logical interface name, e.g. "sbdms.storage.Disk".
	// Multiple services may implement the same interface.
	Interface   string
	Operations  []OpSpec
	Description Description
	Quality     Quality
}

// Clone returns a deep copy of the contract.
func (c *Contract) Clone() *Contract {
	if c == nil {
		return nil
	}
	cp := *c
	cp.Operations = append([]OpSpec(nil), c.Operations...)
	return &cp
}

// Op returns the spec of the named operation, or false if absent.
func (c *Contract) Op(name string) (OpSpec, bool) {
	for _, op := range c.Operations {
		if op.Name == name {
			return op, true
		}
	}
	return OpSpec{}, false
}

// OpBySemantic returns the first operation carrying the given semantic
// tag, or false if none does.
func (c *Contract) OpBySemantic(tag string) (OpSpec, bool) {
	if tag == "" {
		return OpSpec{}, false
	}
	for _, op := range c.Operations {
		if op.Semantic == tag {
			return op, true
		}
	}
	return OpSpec{}, false
}
