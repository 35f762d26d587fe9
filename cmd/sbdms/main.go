// Command sbdms runs an SBDMS node: it opens (or creates) a database,
// composes the service architecture at the requested granularity,
// exposes every registered service over the TCP binding, and optionally
// gossips its registry with peer nodes (Section 4: P2P service
// information updates).
//
// Usage:
//
//	sbdms -addr :7070 -data ./node1.db -wal-dir ./node1.wal -granularity layered -peers host:7071,host:7072
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sbdms "repro"
	"repro/internal/cluster"
	"repro/internal/netbind"
	"repro/internal/storage"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address for the TCP binding")
	dataPath := flag.String("data", "", "data file (empty = in-memory)")
	walDir := flag.String("wal-dir", "", "WAL directory (wal.NNNNNN segment files, truncated by checkpoints; empty = <data>.wal next to -data, or in-memory without -data)")
	segBytes := flag.Int("wal-segment-bytes", 0, "WAL segment roll threshold in bytes (0 = 1 MiB)")
	ckptEvery := flag.Duration("checkpoint-interval", 0, "background fuzzy-checkpoint period (0 = off); bounds recovery time and WAL size")
	vacEvery := flag.Duration("vacuum-interval", 0, "background MVCC vacuum period (0 = off); reclaims dead versions behind the snapshot horizon")
	granularity := flag.String("granularity", "layered", "service granularity: monolithic|coarse|layered|fine")
	frames := flag.Int("frames", 256, "buffer pool frames")
	scanIsolation := flag.String("scan-isolation", "read-committed", "range-scan isolation: read-committed|serializable (serializable = next-key locking, phantom-free scans)")
	peers := flag.String("peers", "", "comma-separated peer addresses for registry gossip")
	gossipEvery := flag.Duration("gossip", 2*time.Second, "gossip interval")
	importFile := flag.String("import", "", "bulk-load key<TAB>value lines from this file (- = stdin), print stats and exit instead of serving")
	clusterShards := flag.Int("cluster-shards", 0, "serve an in-process demo cluster with this many hash-partitioned shards instead of a single node (0 = off)")
	clusterFollowers := flag.Int("cluster-followers", 1, "WAL-shipped followers per shard for -cluster-shards")
	clusterAsync := flag.Bool("cluster-async", false, "async-commit WAL mode: ack once a follower holds the record, before the leader's local fsync")
	flag.Parse()

	opts := sbdms.Options{
		Granularity:        sbdms.Granularity(*granularity),
		BufferFrames:       *frames,
		WALSegmentBytes:    *segBytes,
		CheckpointInterval: *ckptEvery,
		VacuumInterval:     *vacEvery,
		ScanIsolation:      sbdms.ScanIsolation(*scanIsolation),
	}
	if *importFile != "" {
		if err := runImport(*importFile, *dataPath, *walDir, opts); err != nil {
			fail(err)
		}
		return
	}
	if *clusterShards > 0 {
		if err := runCluster(*clusterShards, *clusterFollowers, *clusterAsync, *frames, *segBytes, *ckptEvery); err != nil {
			fail(err)
		}
		return
	}
	if err := run(*addr, *dataPath, *walDir, opts, *peers, *gossipEvery); err != nil {
		fail(err)
	}
}

// oldFormatHint is the way out of wal.ErrFormat: there is one log
// record format and no migration.
const oldFormatHint = "this store's log was written by an older sbdms: dump its keys with the build that wrote it and reload them into a fresh -data/-wal-dir with `sbdms -import`"

// fail reports err — and, where there is one, the way out — and exits.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "sbdms:", err)
	if errors.Is(err, wal.ErrFormat) {
		fmt.Fprintln(os.Stderr, "sbdms:", oldFormatHint)
	}
	os.Exit(1)
}

// openStore opens the database over the data file and WAL directory
// named on the command line (absent flags leave the in-memory defaults).
// A persistent data file never runs over a volatile log: with -data set
// and -wal-dir empty the log lives in <data>.wal. The directory in use
// is printed so an operator knows what to keep with the data file.
func openStore(dataPath, walDir string, opts sbdms.Options) (*sbdms.DB, error) {
	if dataPath != "" {
		dev, err := storage.OpenFileDevice(dataPath)
		if err != nil {
			return nil, err
		}
		opts.Device = dev
		if walDir == "" {
			walDir = dataPath + ".wal"
		}
	}
	if walDir != "" {
		dir, err := wal.NewFileSegmentDir(walDir)
		if err != nil {
			return nil, err
		}
		opts.LogDir = dir
		fmt.Printf("sbdms: write-ahead log in %s\n", walDir)
	}
	return sbdms.Open(opts)
}

// runImport bulk-loads key<TAB>value lines into the store and exits:
// the offline counterpart of the serving mode, using the same Import
// path (sorted bottom-up build on an empty store, atomic all-or-nothing
// load otherwise).
func runImport(file, dataPath, walDir string, opts sbdms.Options) error {
	in := os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var keys []string
	var vals [][]byte
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		k, v, ok := strings.Cut(text, "\t")
		if !ok {
			return fmt.Errorf("import: line %d: no TAB separator", line)
		}
		keys = append(keys, k)
		vals = append(vals, []byte(v))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	db, err := openStore(dataPath, walDir, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := db.Import(context.Background(), keys, vals); err != nil {
		_ = db.Close(context.Background())
		return fmt.Errorf("import: %w", err)
	}
	elapsed := time.Since(start)
	path := "bulk-build"
	if db.ImportFallbacks() > 0 {
		path = "per-key fallback"
	}
	if err := db.Close(context.Background()); err != nil {
		return err
	}
	rate := 0.0
	if elapsed > 0 {
		rate = float64(len(keys)) / elapsed.Seconds()
	}
	fmt.Printf("sbdms: imported %d keys in %v (%.0f keys/s, %s path)\n",
		len(keys), elapsed.Round(time.Millisecond), rate, path)
	return nil
}

// runCluster serves an in-process demo cluster: shards leaders (each a
// full engine) with WAL-shipped followers, every node's registry served
// over its own netbind TCP listener, writes routed by key hash through
// an epoch-aware router. A smoke write/read proves the data path before
// the process parks on the signal handler.
func runCluster(shards, followers int, async bool, frames, segBytes int, ckptEvery time.Duration) error {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{
		Shards:             shards,
		Followers:          followers,
		AsyncCommit:        async,
		UseNetbind:         true,
		Frames:             frames,
		WALSegmentBytes:    segBytes,
		CheckpointInterval: ckptEvery,
	})
	if err != nil {
		return err
	}
	defer c.Close(ctx)

	m := c.Map()
	fmt.Printf("sbdms: cluster epoch %d — %d shards x (1 leader + %d followers), async-commit=%t\n",
		m.Epoch, shards, followers, async)
	for _, sh := range m.Shards {
		fmt.Printf("  shard %d: leader %s, followers %v\n", sh.ID, sh.Leader, sh.Followers)
	}

	r := c.Router()
	if err := r.Put(ctx, "cluster-demo", []byte("ok")); err != nil {
		return fmt.Errorf("cluster smoke put: %w", err)
	}
	if v, err := r.Get(ctx, "cluster-demo"); err != nil || string(v) != "ok" {
		return fmt.Errorf("cluster smoke get = %q, %v", v, err)
	}
	fmt.Println("sbdms: router smoke test ok; Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sbdms: shutting down cluster")
	return nil
}

func run(addr, dataPath, walDir string, opts sbdms.Options, peers string, gossipEvery time.Duration) error {
	db, err := openStore(dataPath, walDir, opts)
	if err != nil {
		return err
	}
	defer db.Close(context.Background())

	srv, err := netbind.Serve(db.Kernel().Registry(), addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("sbdms: serving %d services at %s (granularity=%s, shards=%d)\n",
		db.Kernel().Registry().Len(), srv.Addr(), db.Granularity(), db.Pool().NumShards())
	for _, reg := range db.Kernel().Registry().All() {
		fmt.Printf("  service %-24s interface %s\n", reg.Name, reg.Interface)
	}

	var gossiper *netbind.Gossiper
	if peers != "" {
		list := strings.Split(peers, ",")
		gossiper = netbind.NewGossiper(db.Kernel().Registry(), srv.Addr(), list...)
		gossiper.Start(gossipEvery)
		defer gossiper.Stop()
		fmt.Printf("sbdms: gossiping with %v every %v\n", list, gossipEvery)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sbdms: shutting down")
	return nil
}
