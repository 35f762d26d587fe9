package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netbind"
)

// Config sizes a cluster.
type Config struct {
	// Shards is the partition count; Followers the replica count per
	// shard (0 = unreplicated shards).
	Shards    int
	Followers int
	// AsyncCommit acks writes once a follower holds the WAL record,
	// before the leader's local fsync; AckTimeout bounds the wait.
	AsyncCommit bool
	AckTimeout  time.Duration
	// UseNetbind serves every node over TCP and routes through
	// netbind clients instead of direct in-process invocation.
	UseNetbind bool
	// Node engine knobs (0 = engine defaults).
	Frames          int
	WALSegmentBytes int
}

// Cluster assembles N shards of leader+followers over a fault-injectable
// transport, publishes the shard map through a core registry, and hands
// out epoch-aware routers. It is both the production-shaped topology
// (every hop a service invocation, optionally over netbind) and the
// substrate of the deterministic fault harness.
type Cluster struct {
	cfg      Config
	nodes    map[NodeID]*Node
	pub      *MapPublisher
	registry *core.Registry
	local    *LocalTransport
	net      *NetTransport
	faults   *FaultTransport
	servers  []*netbind.Server
	router   *Router
}

// LeaderID names shard s's initial leader.
func LeaderID(s int) NodeID { return NodeID(fmt.Sprintf("s%d-leader", s)) }

// FollowerID names shard s's f'th initial follower.
func FollowerID(s, f int) NodeID { return NodeID(fmt.Sprintf("s%d-f%d", s, f)) }

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	c := &Cluster{
		cfg:      cfg,
		nodes:    make(map[NodeID]*Node),
		registry: core.NewRegistry(nil),
		local:    NewLocalTransport(),
	}
	var base Transport = c.local
	if cfg.UseNetbind {
		c.net = NewNetTransport()
		base = c.net
	}
	c.faults = NewFaultTransport(base)

	m := &Map{Epoch: 1, Shards: make([]Shard, cfg.Shards)}
	for s := 0; s < cfg.Shards; s++ {
		sh := Shard{ID: s, Leader: LeaderID(s)}
		for f := 0; f < cfg.Followers; f++ {
			sh.Followers = append(sh.Followers, FollowerID(s, f))
		}
		m.Shards[s] = sh

		nodeCfg := NodeConfig{
			ID: sh.Leader, Shard: s,
			AsyncCommit: cfg.AsyncCommit, AckTimeout: cfg.AckTimeout,
			Frames: cfg.Frames, WALSegmentBytes: cfg.WALSegmentBytes,
		}
		leader, err := NewLeaderNode(nodeCfg, c.faults)
		if err != nil {
			c.closeAll()
			return nil, err
		}
		leader.SetFollowers(sh.Followers)
		c.addNode(leader)
		for f := 0; f < cfg.Followers; f++ {
			fCfg := nodeCfg
			fCfg.ID = FollowerID(s, f)
			fn, err := NewFollowerNode(fCfg, c.faults)
			if err != nil {
				c.closeAll()
				return nil, err
			}
			c.addNode(fn)
		}
	}

	c.pub = NewMapPublisher(m)
	if err := c.registry.RegisterService(c.pub.Service(), map[string]string{"role": "controller"}); err != nil {
		c.closeAll()
		return nil, err
	}

	if cfg.UseNetbind {
		for id, n := range c.nodes {
			srv, err := netbind.Serve(n.Registry(), "")
			if err != nil {
				c.closeAll()
				return nil, err
			}
			c.servers = append(c.servers, srv)
			c.net.SetAddr(id, srv.Addr())
		}
	}

	c.router = NewRouter(c.faults, func(ctx context.Context) (*Map, error) {
		reg, err := c.registry.Lookup(MapServiceName)
		if err != nil {
			return nil, err
		}
		res, err := reg.Invoker.Invoke(ctx, "get", nil)
		if err != nil {
			return nil, err
		}
		mp, ok := res.(*Map)
		if !ok {
			return nil, fmt.Errorf("cluster: map service returned %T", res)
		}
		return mp, nil
	})
	return c, nil
}

func (c *Cluster) addNode(n *Node) {
	c.nodes[n.ID()] = n
	c.local.Register(n.ID(), n.Registry())
}

// Router returns an epoch-aware client router.
func (c *Cluster) Router() *Router { return c.router }

// NewRouter returns a fresh router (own map cache) for tests that need
// independently-staled clients.
func (c *Cluster) NewRouter() *Router {
	return NewRouter(c.faults, c.router.fetch)
}

// Faults returns the fault-injection plane.
func (c *Cluster) Faults() *FaultTransport { return c.faults }

// Node returns a member by ID (nil if unknown).
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Registry returns the controller registry publishing the shard map.
func (c *Cluster) Registry() *core.Registry { return c.registry }

// Map returns the authoritative shard map.
func (c *Cluster) Map() *Map { return c.pub.Get() }

// Bump installs next as the successor shard map: nodes learn the new
// epoch first, then the map is published, so routed requests planned
// under the old epoch are rejected (typed, retryable) rather than
// landing on a node that has moved on.
func (c *Cluster) Bump(next *Map) uint64 {
	epoch := c.pub.Get().Epoch + 1
	for _, n := range c.nodes {
		n.SetEpoch(epoch)
	}
	return c.pub.Bump(next)
}

// Kill is kill -9 for a node: its transport goes dark and its devices
// start failing every access. Nothing is flushed.
func (c *Cluster) Kill(id NodeID) {
	c.faults.Kill(id)
	if n := c.nodes[id]; n != nil {
		n.Kill()
	}
}

// Failover promotes shard's first live follower to leader and publishes
// the successor map, returning how long promotion (replica flush +
// crash recovery + map install) took.
func (c *Cluster) Failover(shard int) (time.Duration, error) {
	m := c.pub.Get()
	if shard < 0 || shard >= len(m.Shards) {
		return 0, fmt.Errorf("cluster: no shard %d", shard)
	}
	sh := m.Shards[shard]
	if len(sh.Followers) == 0 {
		return 0, fmt.Errorf("cluster: shard %d has no followers to promote", shard)
	}
	promoted := sh.Followers[0]
	rest := append([]NodeID(nil), sh.Followers[1:]...)

	start := time.Now()
	n := c.nodes[promoted]
	n.SetFollowers(rest)
	if err := n.Promote(); err != nil {
		return 0, err
	}
	m.Shards[shard] = Shard{ID: shard, Leader: promoted, Followers: rest}
	c.Bump(m)
	return time.Since(start), nil
}

// Close shuts every live node down cleanly.
func (c *Cluster) Close(ctx context.Context) error {
	var first error
	for _, srv := range c.servers {
		if err := srv.Close(); first == nil {
			first = err
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	for _, n := range c.nodes {
		if n.killed.Load() {
			continue // kill -9 means no clean shutdown
		}
		if err := n.Close(ctx); first == nil {
			first = err
		}
	}
	return first
}

func (c *Cluster) closeAll() {
	//lint:ignore ctxflow best-effort teardown of a half-built cluster has no caller context
	_ = c.Close(context.Background())
}
