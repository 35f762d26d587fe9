// Package netbind provides the network communication protocol of the
// SBDMS architecture (Section 3.2: "service communication is done
// through well-defined communication protocols"): a TCP binding with a
// gob wire format exposing kernel-registered services to remote
// callers, a client implementing core.Invoker, and P2P gossip
// synchronisation between service registries (Section 4: "P2P style
// service information updates can be used to transmit information
// between service repositories").
package netbind

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/sql"
)

// Netbind errors.
var (
	// ErrRemote wraps an error returned by the remote service.
	ErrRemote = errors.New("netbind: remote error")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("netbind: closed")
	// ErrMessageTooLarge aborts a connection whose single message
	// exceeds the server's size limit (see WithMaxMessageBytes). The
	// gob stream is unrecoverable mid-message, so the connection drops.
	ErrMessageTooLarge = errors.New("netbind: message exceeds size limit")
)

// DefaultMaxMessageBytes bounds one decoded request when no explicit
// limit is configured: large enough for bulk imports and bootstrap
// snapshots, small enough that one rogue frame cannot exhaust memory.
const DefaultMaxMessageBytes = 64 << 20

// Protocol name of this binding.
const Protocol = "tcp+gob"

// request is one wire call.
type request struct {
	Service string
	Op      string
	Payload payload
}

// response is one wire reply.
type response struct {
	Payload payload
	Err     string
}

// payload boxes an arbitrary gob-encodable value.
type payload struct {
	V any
}

// syncRequest is the gossip exchange payload: the sender's snapshot
// plus its advertised address.
type syncRequest struct {
	From    string
	Entries []*core.Registration
}

// RegisterType makes a payload type transferable over the binding (gob
// requires concrete types to be registered on both sides).
func RegisterType(v any) { gob.Register(v) }

func init() {
	// Types commonly crossing service boundaries.
	RegisterType(access.Row{})
	RegisterType(access.Value{})
	RegisterType([]access.Row(nil))
	RegisterType(access.RID{})
	RegisterType(map[string]string{})
	RegisterType([]string(nil))
	RegisterType(core.ReleaseResourcesRequest{})
	RegisterType(&sql.Result{})
	RegisterType(core.CoordStatus{})
	RegisterType(syncRequest{})
	RegisterType([]*core.Registration(nil))
	RegisterType([]byte(nil))
}

// Server exposes every live registration of a registry over TCP.
type Server struct {
	registry *core.Registry
	ln       net.Listener
	addr     string
	maxMsg   int64
	ctx      context.Context // root context for dispatched invocations
	cancel   context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// ServerOption configures a Server at Serve time.
type ServerOption func(*Server)

// WithMaxMessageBytes caps the bytes one request message may occupy on
// the wire; a connection sending a larger message is dropped with
// ErrMessageTooLarge before the payload is materialized.
func WithMaxMessageBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxMsg = n
		}
	}
}

// Serve starts a server on addr ("" or ":0" picks a free port).
func Serve(registry *core.Registry, addr string, opts ...ServerOption) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netbind: listen %s: %w", addr, err)
	}
	s := &Server{
		registry: registry,
		ln:       ln,
		addr:     ln.Addr().String(),
		maxMsg:   DefaultMaxMessageBytes,
		conns:    make(map[net.Conn]bool),
	}
	for _, opt := range opts {
		opt(s)
	}
	//lint:ignore ctxflow the server's root context: every dispatched invocation derives from it, and Close cancels it
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	lim := &limitedMessageReader{conn: conn}
	dec := gob.NewDecoder(lim)
	enc := gob.NewEncoder(conn)
	for {
		lim.reset(s.maxMsg)
		var req request
		if err := dec.Decode(&req); err != nil {
			// An oversized message corrupts the gob stream mid-frame;
			// the only safe recovery is dropping the connection.
			return
		}
		resp := s.dispatch(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// limitedMessageReader meters bytes flowing into the gob decoder. The
// budget is reset before each message: a single message that overruns
// it fails the read, which fails the decode, which drops the
// connection — the server never buffers an unbounded frame.
type limitedMessageReader struct {
	conn      net.Conn
	remaining int64
}

func (l *limitedMessageReader) reset(budget int64) { l.remaining = budget }

func (l *limitedMessageReader) Read(p []byte) (int, error) {
	if l.remaining <= 0 {
		return 0, ErrMessageTooLarge
	}
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.conn.Read(p)
	l.remaining -= int64(n)
	return n, err
}

// registrySyncService is the reserved service name for gossip.
const registrySyncService = "_registry"

func (s *Server) dispatch(req *request) *response {
	if req.Service == registrySyncService {
		return s.handleSync(req)
	}
	reg, err := s.registry.Lookup(req.Service)
	if err != nil {
		return &response{Err: err.Error()}
	}
	out, err := reg.Invoker.Invoke(s.ctx, req.Op, req.Payload.V)
	if err != nil {
		return &response{Err: err.Error()}
	}
	return &response{Payload: payload{V: out}}
}

func (s *Server) handleSync(req *request) *response {
	sr, ok := req.Payload.V.(syncRequest)
	if !ok {
		return &response{Err: "netbind: bad sync payload"}
	}
	s.registry.Merge(sr.Entries, func(addr, name string) core.Invoker {
		return NewClient(addr).InvokerFor(name)
	})
	// Reply with our own snapshot, addresses filled in.
	return &response{Payload: payload{V: syncRequest{
		From:    s.addr,
		Entries: s.snapshot(),
	}}}
}

// snapshot exports the registry with local entries advertised at this
// server's address.
func (s *Server) snapshot() []*core.Registration {
	entries := s.registry.Snapshot(0)
	for _, e := range entries {
		if e.Address == "" {
			e.Address = s.addr
		}
	}
	return entries
}

// Close stops the server and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel() // unblock in-flight invocations waiting on locks
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a connection-caching caller for one remote server.
type Client struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	closed bool
}

// NewClient creates a client for addr (lazy dial).
func NewClient(addr string) *Client { return &Client{addr: addr} }

func (c *Client) ensureLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("netbind: dialing %s: %w", c.addr, err)
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	c.dec = gob.NewDecoder(conn)
	return nil
}

// Call invokes op on the named remote service.
func (c *Client) Call(ctx context.Context, service, op string, in any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
	} else {
		_ = c.conn.SetDeadline(time.Time{})
	}
	req := request{Service: service, Op: op, Payload: payload{V: in}}
	if err := c.enc.Encode(&req); err != nil {
		c.dropLocked()
		return nil, fmt.Errorf("netbind: sending to %s: %w", c.addr, err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		c.dropLocked()
		return nil, fmt.Errorf("netbind: receiving from %s: %w", c.addr, err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Err)
	}
	return resp.Payload.V, nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.enc, c.dec = nil, nil
	}
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropLocked()
	return nil
}

// InvokerFor returns a core.Invoker bound to one remote service — the
// remote counterpart of a local service reference.
func (c *Client) InvokerFor(service string) core.Invoker {
	return core.InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
		return c.Call(ctx, service, op, req)
	})
}

// Sync performs one gossip exchange with a peer server: our snapshot
// goes out, the peer's snapshot merges back in. Returns how many peer
// entries were applied locally. The context bounds the exchange (its
// deadline becomes the connection deadline).
func Sync(ctx context.Context, registry *core.Registry, selfAddr string, peer *Client) (int, error) {
	entries := registry.Snapshot(0)
	for _, e := range entries {
		if e.Address == "" {
			e.Address = selfAddr
		}
	}
	out, err := peer.Call(ctx, registrySyncService, "sync", syncRequest{
		From:    selfAddr,
		Entries: entries,
	})
	if err != nil {
		return 0, err
	}
	sr, ok := out.(syncRequest)
	if !ok {
		return 0, fmt.Errorf("netbind: unexpected sync reply %T", out)
	}
	applied := registry.Merge(sr.Entries, func(addr, name string) core.Invoker {
		if addr == selfAddr {
			return nil // never dial ourselves for our own entries
		}
		return NewClient(addr).InvokerFor(name)
	})
	return applied, nil
}

// Gossiper periodically syncs a registry with a set of peers.
type Gossiper struct {
	registry *core.Registry
	self     string
	peers    []*Client
	ctx      context.Context // root context for gossip exchanges
	cancel   context.CancelFunc
	stop     chan struct{}
	done     chan struct{}
}

// NewGossiper creates a gossiper for the registry served at selfAddr.
func NewGossiper(registry *core.Registry, selfAddr string, peerAddrs ...string) *Gossiper {
	g := &Gossiper{registry: registry, self: selfAddr}
	for _, a := range peerAddrs {
		g.peers = append(g.peers, NewClient(a))
	}
	return g
}

// Start begins periodic gossip every interval.
func (g *Gossiper) Start(interval time.Duration) {
	if g.stop != nil {
		return
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	//lint:ignore ctxflow the gossip daemon's root context: Stop cancels it, aborting any exchange in flight
	g.ctx, g.cancel = context.WithCancel(context.Background())
	go func() {
		defer close(g.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				for _, p := range g.peers {
					_, _ = Sync(g.ctx, g.registry, g.self, p)
				}
			}
		}
	}()
}

// Stop halts gossiping.
func (g *Gossiper) Stop() {
	if g.stop == nil {
		return
	}
	g.cancel()
	close(g.stop)
	<-g.done
	g.stop = nil
	for _, p := range g.peers {
		_ = p.Close()
	}
}

// Binding implements core.Binding over a real wire: Bind serves the
// target on a loopback server of its own and returns that server's
// client, so every call through the bound invoker is one TCP round trip
// with gob framing. Each bound service gets its own server and client,
// so a handler that calls another bound service (Layered's kv → record
// hop) never waits on the connection it is being served from. The zero
// value is ready to use; Close stops every server and client Bind
// started.
type Binding struct {
	calls   atomic.Int64
	mu      sync.Mutex
	started []interface{ Close() error } // each bound target's client and server
}

// Bind implements core.Binding. If the target cannot be served, every
// call through the returned invoker fails with that error.
func (b *Binding) Bind(target core.Invoker) core.Invoker {
	remote, err := b.serve(target)
	return core.InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
		b.calls.Add(1)
		if err != nil {
			return nil, err
		}
		return remote.Invoke(ctx, op, req)
	})
}

// serve registers target in a registry of its own, serves that
// registry on loopback and returns a client invoker for it.
func (b *Binding) serve(target core.Invoker) (core.Invoker, error) {
	const name = "bound"
	reg := core.NewRegistry(nil)
	if err := reg.Register(&core.Registration{
		Name: name, Interface: name, Contract: &core.Contract{Interface: name}, Invoker: target,
	}); err != nil {
		return nil, err
	}
	srv, err := Serve(reg, "")
	if err != nil {
		return nil, err
	}
	c := NewClient(srv.Addr())
	b.mu.Lock()
	b.started = append(b.started, c, srv)
	b.mu.Unlock()
	return c.InvokerFor(name), nil
}

// Calls reports how many calls have been made through the invokers Bind
// returned.
func (b *Binding) Calls() int64 { return b.calls.Load() }

// Close stops every client and server Bind started; later calls through
// a bound invoker fail with ErrClosed.
func (b *Binding) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var errs []error
	for _, c := range b.started {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// Protocol implements core.Binding.
func (b *Binding) Protocol() string { return Protocol }
