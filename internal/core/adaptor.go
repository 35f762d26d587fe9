package core

import (
	"context"
	"errors"
	"fmt"
)

// Adaptor-related errors.
var (
	// ErrNoAdaptation is returned when no adaptor can be generated
	// between two contracts.
	ErrNoAdaptation = errors.New("core: no adaptation possible")
)

// opMapping maps one required operation onto a target operation,
// converting request and response payloads with transformation schemas
// from the repository (the identity when the types already agree).
type opMapping struct {
	// TargetOp is the operation invoked on the adapted service.
	TargetOp string
	// MapIn converts the caller's request into the target's request
	// type.
	MapIn TransformFunc
	// MapOut converts the target's response into the caller's expected
	// response type.
	MapOut TransformFunc
}

// Adaptor is an adaptor service (Section 3.1, 3.6): it mediates between
// a required interface and a provider with a different interface or
// protocol, so that "the architecture can adapt the service interfaces
// to meet the new requirements". An Adaptor is itself a Service and can
// be registered under the required interface, making the adaptation
// transparent to callers.
type Adaptor struct {
	name     string
	required *Contract
	target   Invoker
	mappings map[string]opMapping
}

// GenerateAdaptor automatically derives an adaptor from the required
// contract to a provider's contract (the "automatically generated"
// path of Section 3.1). For each required operation it finds a provided
// operation with the same semantic tag (falling back to the same name),
// then looks up payload transformations in the repository. It fails
// with ErrNoAdaptation when any operation cannot be bridged.
func GenerateAdaptor(name string, required, provided *Contract, target Invoker, repo *Repository) (*Adaptor, error) {
	if required == nil || provided == nil {
		return nil, fmt.Errorf("%w: missing contract", ErrNoAdaptation)
	}
	mappings := make(map[string]opMapping, len(required.Operations))
	for _, want := range required.Operations {
		got, ok := provided.OpBySemantic(want.Semantic)
		if !ok {
			got, ok = provided.Op(want.Name)
		}
		if !ok {
			return nil, fmt.Errorf("%w: no provided operation for %s.%s (semantic %q)",
				ErrNoAdaptation, required.Interface, want.Name, want.Semantic)
		}
		mapIn, ok := repo.Transform(want.In, got.In)
		if !ok {
			return nil, fmt.Errorf("%w: no transformation schema %s -> %s for operation %s",
				ErrNoAdaptation, want.In, got.In, want.Name)
		}
		mapOut, ok := repo.Transform(got.Out, want.Out)
		if !ok {
			return nil, fmt.Errorf("%w: no transformation schema %s -> %s for operation %s result",
				ErrNoAdaptation, got.Out, want.Out, want.Name)
		}
		mappings[want.Name] = opMapping{TargetOp: got.Name, MapIn: mapIn, MapOut: mapOut}
	}
	return &Adaptor{name: name, required: required, target: target, mappings: mappings}, nil
}

// Name implements Service.
func (a *Adaptor) Name() string { return a.name }

// Contract implements Service: an adaptor presents the required
// contract, hiding the adapted provider entirely.
func (a *Adaptor) Contract() *Contract { return a.required }

// State implements Service. Adaptors are stateless pass-throughs and
// are always running once created.
func (a *Adaptor) State() State { return StateRunning }

// Start implements Service (no-op).
func (a *Adaptor) Start(ctx context.Context) error { return nil }

// Stop implements Service (no-op).
func (a *Adaptor) Stop(ctx context.Context) error { return nil }

// Invoke implements Invoker: it maps the operation and payloads and
// forwards to the adapted provider.
func (a *Adaptor) Invoke(ctx context.Context, op string, req any) (any, error) {
	m, ok := a.mappings[op]
	if !ok {
		return nil, fmt.Errorf("adaptor %s: %w: %q", a.name, ErrUnknownOp, op)
	}
	in, err := m.MapIn(req)
	if err != nil {
		return nil, fmt.Errorf("adaptor %s: mapping request for %s: %w", a.name, op, err)
	}
	out, err := a.target.Invoke(ctx, m.TargetOp, in)
	if err != nil {
		return nil, err
	}
	out, err = m.MapOut(out)
	if err != nil {
		return nil, fmt.Errorf("adaptor %s: mapping response for %s: %w", a.name, op, err)
	}
	return out, nil
}
