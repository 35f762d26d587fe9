// Command sbdmsctl inspects and drives a running sbdms node over the
// TCP binding.
//
// Usage:
//
//	sbdmsctl -addr host:7070 services            # list registered services
//	sbdmsctl -addr host:7070 ping <service>      # liveness probe
//	sbdmsctl -addr host:7070 sql "SELECT ..."    # run SQL via the query service
//	sbdmsctl -addr host:7070 get <key>           # KV get via the kv service
//	sbdmsctl -addr host:7070 put <key> <value>   # KV put
//	sbdmsctl -addr host:7070 scan <from> [n]     # KV range scan (one MVCC snapshot)
//	sbdmsctl -addr host:7070 status              # coordinator status
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	sbdms "repro"
	"repro/internal/core"
	"repro/internal/netbind"
	"repro/internal/sql"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "node address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sbdmsctl [-addr host:port] services|ping|sql|get|put|scan|status ...")
		os.Exit(2)
	}
	if err := run(*addr, args); err != nil {
		fmt.Fprintln(os.Stderr, "sbdmsctl:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	ctx := context.Background()
	client := netbind.NewClient(addr)
	defer client.Close()
	kv := sbdms.NewKVClient(client.InvokerFor("kv"))

	switch args[0] {
	case "services":
		// A one-shot gossip exchange returns the remote registry
		// without registering anything of our own.
		local := core.NewRegistry(nil)
		if _, err := netbind.Sync(ctx, local, "ctl", client); err != nil {
			return err
		}
		for _, reg := range local.All() {
			fmt.Printf("%-24s %-28s quality=%s/%.3f\n", reg.Name, reg.Interface,
				reg.Contract.Quality.LatencyClass, reg.Contract.Quality.Availability)
		}
		return nil
	case "ping":
		if len(args) < 2 {
			return fmt.Errorf("ping needs a service name")
		}
		out, err := client.Call(ctx, args[1], core.PingOp, nil)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	case "sql":
		if len(args) < 2 {
			return fmt.Errorf("sql needs a query")
		}
		out, err := client.Call(ctx, "query", "execute", strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		res, ok := out.(*sql.Result)
		if !ok {
			return fmt.Errorf("unexpected reply %T", out)
		}
		if len(res.Cols) > 0 {
			fmt.Println(strings.Join(res.Cols, "\t"))
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Println(strings.Join(parts, "\t"))
			}
		}
		fmt.Printf("-- %d rows, %d affected\n", len(res.Rows), res.Affected)
		return nil
	case "get":
		if len(args) < 2 {
			return fmt.Errorf("get needs a key")
		}
		out, err := kv.Get(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
		return nil
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("put needs a key and a value")
		}
		if err := kv.Put(ctx, args[1], []byte(args[2])); err != nil {
			return err
		}
		fmt.Println("OK")
		return nil
	case "scan":
		if len(args) < 2 {
			return fmt.Errorf("scan needs a start key (\"\" for the beginning)")
		}
		n := 100
		if len(args) > 2 {
			if _, err := fmt.Sscanf(args[2], "%d", &n); err != nil {
				return fmt.Errorf("scan limit %q: %w", args[2], err)
			}
		}
		keys, err := kv.Scan(ctx, args[1], n)
		if err != nil {
			return err
		}
		for _, k := range keys {
			fmt.Println(k)
		}
		fmt.Printf("-- %d keys\n", len(keys))
		return nil
	case "status":
		out, err := client.Call(ctx, "coordinator", core.OpCoordStatus, nil)
		if err != nil {
			return err
		}
		st, ok := out.(core.CoordStatus)
		if !ok {
			return fmt.Errorf("unexpected reply %T", out)
		}
		fmt.Printf("managedRefs=%d requiredInterfaces=%v avoided=%v adaptations=%d switches=%d\n",
			st.ManagedRefs, st.RequiredIfcs, st.AvoidedSvcs, st.Adaptations, st.Switches)
		return nil
	}
	return fmt.Errorf("unknown command %q", args[0])
}
