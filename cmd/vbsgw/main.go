// Command vbsgw is the cluster gateway: it fronts a fleet of vbsd
// nodes with the exact single-daemon HTTP/JSON API, so any vbsd
// client (including the unchanged server.Client) scales from one
// process to N without modification.
//
//	vbsgw -addr :8930 -nodes http://n1:8931,http://n2:8931,http://n3:8931 -replicas 2
//
// Blob operations route by content address over a deterministic
// consistent-hash ring (virtual nodes): each digest has a primary
// node plus -replicas−1 replicas, loads write the container through
// to every replica before replying, reads fail over across the
// replica set (falling back to a full scatter for blobs imported
// out-of-band) and heal missing replicas on the way (read-repair).
// Fleet-wide listings (GET /vbs, /tasks, /fabrics) scatter-gather and
// merge; GET /cluster/nodes lists each member's mode, probe health and
// boot instance with the ring version, and every gateway counter is on
// GET /metrics — fleet totals stay on the nodes.
// The gateway keeps no task state: task ids pass through as their node
// minted them and route by the node's boot instance in the high bits,
// so a restarted or second gateway names every task the same way.
//
// Membership is elastic at runtime; a background rebalancer converges
// blob placement after every change — every pass is a Job (POST /jobs
// {"kind":"rebalance"} starts one by hand, DELETE /jobs/{id} aborts a
// pass mid-flight). Fleet-wide maintenance kinds (scrub,
// tombstone-sweep, warm) fan out to every node and scatter-gather
// their progress. GET /metrics exposes Prometheus text —
// gateway op latency histograms, cluster gauges, rebalance counters,
// job progress. Replication, repair copies and batch fan-out ride one
// persistent frame stream per node, falling back to per-call HTTP
// while a stream is down or a node answers GET /stream with 404.
// Idempotent hops retry transport failures with capped backoff
// (-retry-attempts / -retry-backoff). Admin verbs drive a running
// gateway:
//
//	vbsgw node ls      -gw http://localhost:8930
//	vbsgw node add     -gw http://localhost:8930 http://n4:8931
//	vbsgw node drain   -gw http://localhost:8930 http://n2:8931
//	vbsgw node remove  -gw http://localhost:8930 http://n2:8931
//	vbsgw rebalance    -gw http://localhost:8930
//
// Node health is probed every -probe-interval; a node is suspect
// after one failure and down after two, and revives on the next
// successful probe or request.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "serve":
			serve(os.Args[2:])
		case "node":
			os.Exit(runNode(os.Args[2:], os.Stdout, os.Stderr))
		case "rebalance":
			os.Exit(runRebalance(os.Args[2:], os.Stdout, os.Stderr))
		default:
			fmt.Fprintf(os.Stderr, "vbsgw: unknown command %q (want serve, node, or rebalance)\n", os.Args[1])
			os.Exit(2)
		}
		return
	}
	serve(os.Args[1:])
}

func serve(args []string) {
	fs := flag.NewFlagSet("vbsgw", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8930", "listen address")
		nodes     = fs.String("nodes", "", "comma-separated vbsd base URLs (required)")
		replicas  = fs.Int("replicas", 2, "nodes holding each blob (primary + R-1 replicas)")
		vnodes    = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per physical node on the hash ring")
		probe     = fs.Duration("probe-interval", 2*time.Second, "health probe interval")
		probeTmo  = fs.Duration("probe-timeout", time.Second, "per-probe timeout")
		hopTmo    = fs.Duration("hop-timeout", 15*time.Second, "per-hop timeout for proxied calls")
		retries   = fs.Int("retry-attempts", 0, "tries per idempotent hop before failover (0 = 3, 1 = no retries)")
		retryBase = fs.Duration("retry-backoff", 0, "first retry delay, doubled per attempt with jitter (0 = 25ms)")
		rebalance = fs.Duration("rebalance-interval", 0, "background rebalance pass interval (0 = 60s, negative = disabled)")
	)
	_ = fs.Parse(args)

	var urls []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			urls = append(urls, n)
		}
	}
	if len(urls) == 0 {
		log.Fatalf("vbsgw: -nodes is required (comma-separated vbsd base URLs)")
	}

	gw, err := cluster.New(urls, cluster.Options{
		Replicas:          *replicas,
		VNodes:            *vnodes,
		ProbeInterval:     *probe,
		ProbeTimeout:      *probeTmo,
		HopTimeout:        *hopTmo,
		RetryAttempts:     *retries,
		RetryBackoff:      *retryBase,
		RebalanceInterval: *rebalance,
	})
	if err != nil {
		log.Fatalf("vbsgw: %v", err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.Start(ctx)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	log.Printf("vbsgw: serving %d node(s) on %s (replicas=%d, ring %s)",
		len(urls), *addr, *replicas, strings.Join(urls, ","))
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("vbsgw: %v", err)
	}
	gw.Stop()
	log.Printf("vbsgw: shut down")
}

// runNode drives the membership admin verbs against a running
// gateway: ls (default), add <url>, drain <node>, remove <node>.
func runNode(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("vbsgw node", flag.ExitOnError)
	gwURL := fs.String("gw", "http://localhost:8930", "gateway base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	verb, rest := "ls", args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, rest = args[0], args[1:]
	}
	_ = fs.Parse(rest)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	admin := cluster.NewAdmin(*gwURL)

	var (
		ms  cluster.MembershipResponse
		err error
	)
	switch verb {
	case "ls":
		ms, err = admin.Nodes(ctx)
	case "add", "drain", "remove":
		if fs.NArg() != 1 {
			fmt.Fprintf(errOut, "vbsgw: node %s needs exactly one node URL\n", verb)
			return 2
		}
		target := fs.Arg(0)
		switch verb {
		case "add":
			ms, err = admin.AddNode(ctx, target)
		case "drain":
			ms, err = admin.DrainNode(ctx, target)
		case "remove":
			ms, err = admin.RemoveNode(ctx, target)
		}
	default:
		fmt.Fprintf(errOut, "vbsgw: unknown node verb %q (want ls, add, drain, or remove)\n", verb)
		return 2
	}
	if err != nil {
		fmt.Fprintf(errOut, "vbsgw: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "membership v%d, ring %s\n", ms.Version, ms.RingVersion)
	for _, n := range ms.Nodes {
		fmt.Fprintf(out, "  %-10s %-8s %s\n", n.Mode, n.State, n.Name)
	}
	return 0
}

// runRebalance kicks a rebalance pass and prints the progress block.
func runRebalance(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("vbsgw rebalance", flag.ExitOnError)
	gwURL := fs.String("gw", "http://localhost:8930", "gateway base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	_ = fs.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st, err := cluster.NewAdmin(*gwURL).Rebalance(ctx)
	if err != nil {
		fmt.Fprintf(errOut, "vbsgw: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "rebalance %s (ring %s): %d pass(es), %d examined, %d copied, %d trimmed, %d tombstones, %d skipped, %d errors\n",
		st.State, st.RingVersion, st.Passes, st.BlobsExamined, st.Copies, st.Trims,
		st.TombstonesPropagated, st.Skipped, st.Errors)
	if st.LastError != "" {
		fmt.Fprintf(out, "last error: %s\n", st.LastError)
	}
	return 0
}
