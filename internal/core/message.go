// Package core implements the SBDMS service kernel: services, contracts,
// registries, repositories, coordinators, resource managers, adaptors
// and the SCA-style component/composite model described in
// "Architectural Concerns for Flexible Data Management" (Subasu et al.,
// EDBT 2008 SETMDM).
//
// The kernel is deliberately independent of any particular database
// functionality: the storage, access and data services of the root
// package are built on top of it and reached through its registry.
package core

import (
	"context"
	"fmt"
	"reflect"
)

// Handler is the function type that implements a single service operation.
// Requests and responses are opaque to the kernel; services declare their
// payload types in the operation spec so that contracts can be matched and
// adaptors generated.
type Handler func(ctx context.Context, req any) (any, error)

// Invoker is anything that can receive a service invocation: a local
// service instance, a remote binding, an adaptor, or a late-bound
// reference. It is the universal connector type of the architecture.
type Invoker interface {
	// Invoke performs operation op with the given request payload and
	// returns the response payload.
	Invoke(ctx context.Context, op string, req any) (any, error)
}

// InvokerFunc adapts a plain function to the Invoker interface.
type InvokerFunc func(ctx context.Context, op string, req any) (any, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, op string, req any) (any, error) {
	return f(ctx, op, req)
}

// TypeName returns the canonical name used in contracts for a payload
// type. It is derived via reflection so that services do not have to
// maintain the names by hand.
func TypeName(v any) string {
	if v == nil {
		return "nil"
	}
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.PkgPath() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}

// RequestError describes a malformed or mistyped request payload. It is
// returned by services when the payload does not match the operation
// spec, and by adaptors when no transformation is available.
type RequestError struct {
	Op   string
	Want string
	Got  string
}

// Error implements the error interface.
func (e *RequestError) Error() string {
	return fmt.Sprintf("core: operation %q expects %s, got %s", e.Op, e.Want, e.Got)
}

// As is used with errors.As via the standard mechanisms; nothing extra
// is needed, the type itself is the target.
