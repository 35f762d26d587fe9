// Distributed: two SBDMS nodes in one process, each serving its
// services over real TCP, learning about each other by P2P registry
// gossip (Section 4). A client-side reference then selects the nearby
// provider by node tag, and falls back to the remote one when the local
// provider disappears.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sbdms "repro"
	"repro/internal/core"
	"repro/internal/netbind"
)

type node struct {
	name string
	db   *sbdms.DB
	srv  *netbind.Server
}

func openNode(ctx context.Context, name string) (*node, error) {
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Coarse})
	if err != nil {
		return nil, err
	}
	// Tag local services with the node name for proximity selection,
	// and make the kv service name unique per node so gossip propagates
	// both.
	reg := db.Kernel().Registry()
	if r, err := reg.Lookup("kv"); err == nil {
		_ = reg.Deregister("kv")
		clone := r.Clone()
		clone.Name = "kv@" + name
		clone.Tags = map[string]string{"node": name}
		if err := reg.Register(clone); err != nil {
			return nil, err
		}
	}
	srv, err := netbind.Serve(reg, "")
	if err != nil {
		return nil, err
	}
	return &node{name: name, db: db, srv: srv}, nil
}

func main() {
	ctx := context.Background()
	a, err := openNode(ctx, "alpha")
	if err != nil {
		log.Fatal(err)
	}
	defer a.db.Close(ctx)
	defer a.srv.Close()
	b, err := openNode(ctx, "beta")
	if err != nil {
		log.Fatal(err)
	}
	defer b.db.Close(ctx)
	defer b.srv.Close()
	fmt.Printf("node alpha at %s, node beta at %s\n", a.srv.Addr(), b.srv.Addr())

	// P2P gossip: alpha syncs with beta periodically.
	g := netbind.NewGossiper(a.db.Kernel().Registry(), a.srv.Addr(), b.srv.Addr())
	g.Start(50 * time.Millisecond)
	defer g.Stop()

	// Wait until alpha discovers beta's kv service.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := a.db.Kernel().Registry().Lookup("kv@beta"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("gossip never propagated kv@beta")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("gossip: alpha discovered beta's services")
	for _, r := range a.db.Kernel().Registry().Discover(sbdms.IfaceKV) {
		where := "local"
		if r.Address != "" {
			where = "remote@" + r.Address
		}
		fmt.Printf("  provider %-10s node=%-6s %s\n", r.Name, r.Tags["node"], where)
	}

	// A proximity-aware reference prefers the local provider.
	ref := core.NewRef(a.db.Kernel().Registry(), sbdms.IfaceKV,
		core.SelectByTag("node", "alpha", nil))
	kv := sbdms.NewKVClient(ref)
	if err := kv.Put(ctx, "k", []byte("v")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proximity selection served by: %s\n", ref.Current())
	if ref.Current() != "kv@alpha" {
		log.Fatal("expected the local provider")
	}

	// The local provider disappears; the reference falls back to the
	// remote provider over TCP (flexibility by selection, across
	// machines).
	_ = a.db.Kernel().Registry().Deregister("kv@alpha")
	ref.Invalidate()
	if err := kv.Put(ctx, "k2", []byte("v2")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after local failure, served by: %s (over TCP)\n", ref.Current())
	if ref.Current() != "kv@beta" {
		log.Fatal("expected the remote provider")
	}

	// Verify the write really landed on beta by asking beta's own
	// provider directly.
	clientB := netbind.NewClient(b.srv.Addr())
	defer clientB.Close()
	out, err := sbdms.NewKVClient(clientB.InvokerFor("kv@beta")).Get(ctx, "k2")
	if err != nil {
		log.Fatalf("beta did not receive the write: %v", err)
	}
	if string(out) != "v2" {
		log.Fatalf("beta holds %q", out)
	}
	fmt.Println("write confirmed on beta — distributed composition works")
}
