package core

import "context"

// Binding separates how a service is reached from what it does
// (Section 3.6: "a binding separates the communication from the
// functionality"). A binding wraps an Invoker with a communication
// mechanism: an unbound service is reached in process, and
// internal/netbind provides a TCP/gob mechanism. Custom protocols plug
// in by implementing this interface.
type Binding interface {
	// Bind wraps target with the binding's communication mechanism.
	Bind(target Invoker) Invoker
	// Protocol names the communication protocol, e.g. "tcp+gob".
	Protocol() string
}

// BoundService wraps a service so that its Invoke path goes through a
// binding while lifecycle methods pass through. Registering a bound
// service makes every caller pay the binding's communication cost —
// how the granularity benchmarks model remote service deployment.
type BoundService struct {
	Service
	invoker Invoker
}

// BindService applies a binding to a service.
func BindService(s Service, b Binding) *BoundService {
	return &BoundService{Service: s, invoker: b.Bind(s)}
}

// Invoke implements Invoker through the binding.
func (bs *BoundService) Invoke(ctx context.Context, op string, req any) (any, error) {
	return bs.invoker.Invoke(ctx, op, req)
}
