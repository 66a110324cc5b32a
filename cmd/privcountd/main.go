// Command privcountd serves differentially private count releases over
// HTTP/JSON, backed by the internal/service mechanism cache: each
// requested scenario (mechanism kind, group size n, privacy level alpha,
// §IV-A property set, objective) is constructed on first touch by a
// bounded background build pool and every later request is served from
// precomputed tables.
//
// Usage:
//
//	privcountd -addr :8080 -capacity 256 -shards 8 -build-workers 4 \
//	           -store-dir /var/lib/privcount
//
// With -store-dir set, built mechanisms persist to disk as versioned
// binary artifacts: a restarted daemon serves previously built
// mechanisms in O(read) instead of re-running the LP solver, and peers
// warm-sync via the /v2 artifact routes.
//
// With -peers and -self set, the daemon joins a static fleet: mechanism
// IDs are sharded across peers by consistent hashing on a ring fixed at
// start, a background agent pulls artifacts this node owns (or
// replicates) from whichever peer built them, and requests for
// non-owned IDs are proxied to the ring owner, so clients may send
// anything to any node:
//
//	privcountd -addr :8080 -self http://node-a:8080 \
//	           -peers http://node-a:8080,http://node-b:8080,http://node-c:8080 \
//	           -replication 2 -route-mode proxy -store-dir /var/lib/privcount
//
// The route set lives in internal/httpapi. The v2 API is organised
// around mechanism identity — the canonical spec token (e.g.
// "lp:n=64:a=0.5:RH+RM+CH+CM+WH:p=0") is the resource ID:
//
//	GET  /healthz                       liveness probe
//	GET  /metrics                       Prometheus text exposition
//	GET  /v2/stats                      cache + build + store statistics
//	PUT  /v2/mechanisms/{id}            admit a mechanism for background build
//	GET  /v2/mechanisms/{id}            build status + detail when ready
//	GET  /v2/mechanisms/{id}/artifact   binary export of the built mechanism
//	PUT  /v2/mechanisms/{id}/artifact   import a pre-built mechanism artifact
//	GET  /v2/mechanisms                 list every cached mechanism
//	POST /v2/query                      multiplexed sample/batch/estimate batch
//
// POST /v2/query negotiates its transport per direction: JSON by
// default, or the length-prefixed binary frame stream (Content-Type /
// Accept "application/x-privcount-batch") for high-throughput batch
// sampling. The retired v1 surface answers 410 Gone with a Link header
// naming each route's v2 successor. The package client is the typed Go
// SDK for the v2 surface, including the binary codec.
//
// Expensive builds are a managed background workload, not request-scoped
// work: a synchronous request whose client disconnects mid-build cancels
// the build (unless a prior async admission pinned it), a PUT admission
// survives its originating request and is polled via GET, and
// SIGINT/SIGTERM drain the build pool before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privcount/internal/cluster"
	"privcount/internal/httpapi"
	"privcount/internal/metrics"
	"privcount/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		capacity = flag.Int("capacity", 256, "total cached mechanisms across shards")
		shards   = flag.Int("shards", 8, "cache shard count (rounded up to a power of two)")
		seed     = flag.Uint64("seed", 0, "RNG pool seed; 0 seeds from the OS CSPRNG")
		workers  = flag.Int("build-workers", 0, "background mechanism-build workers (0 = GOMAXPROCS, capped at 8)")

		maxQueueDepth = flag.Int("max-queue-depth", 0,
			"shed new build admissions when this many are already queued (0 = build queue capacity, negative = unlimited)")
		maxInFlightSecs = flag.Float64("max-inflight-build-seconds", 0,
			"shed new build admissions while running builds have spent this many summed wall seconds (0 = unlimited)")
		shedRetryAfter = flag.Duration("shed-retry-after", 0,
			"Retry-After advice attached to shed responses (0 = 1s)")

		storeDir = flag.String("store-dir", "",
			"directory for the persistent mechanism store; builds found there skip the solver and successful builds persist to it (empty = no persistence)")

		peers = flag.String("peers", "",
			"comma-separated base URLs of every fleet member, self included (empty = single node, no cluster layer)")
		self = flag.String("self", "",
			"this node's base URL as it appears in -peers (required with -peers)")
		routeMode = flag.String("route-mode", "proxy",
			"how requests for non-owned mechanism IDs reach the ring owner: proxy, the only mode")
		syncInterval = flag.Duration("sync-interval", 0,
			"warm-sync poll period (0 = 5s default)")
		replication = flag.Int("replication", 0,
			"peers (owner included) holding each mechanism (0 = 2, clamped to fleet size)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg := service.Config{
		Capacity: *capacity, Shards: *shards, Seed: *seed, BuildWorkers: *workers,
		Admission: service.AdmissionConfig{
			MaxQueueDepth:      *maxQueueDepth,
			MaxInFlightSeconds: *maxInFlightSecs,
			RetryAfter:         *shedRetryAfter,
		},
	}
	if *storeDir != "" {
		store, err := service.NewFSStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = store
	}
	if _, err := cluster.ParseRouteMode(*routeMode); err != nil {
		log.Fatal(err)
	}
	var ccfg *cluster.Config
	if *peers != "" {
		if *self == "" {
			log.Fatal("privcountd: -peers requires -self")
		}
		var peerSet []cluster.Peer
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peerSet = append(peerSet, cluster.Peer{URL: u})
			}
		}
		ccfg = &cluster.Config{
			Self:         *self,
			Membership:   peerSet,
			Replication:  *replication,
			PollInterval: *syncInterval,
			Logf:         log.Printf,
		}
	}
	if err := run(ctx, *addr, cfg, ccfg, nil); err != nil {
		log.Fatal(err)
	}
}

// newMux wires the HTTP routes to svc and, when ccfg is non-nil, the
// cluster node's sync agent and request routing; the handlers live in
// internal/httpapi so tests and in-process embedders share them. The
// returned node is nil for single-box daemons.
func newMux(svc *service.Service, ccfg *cluster.Config) (http.Handler, *cluster.Node, error) {
	if ccfg == nil {
		return httpapi.NewMux(svc), nil, nil
	}
	node, err := cluster.New(svc, *ccfg)
	if err != nil {
		return nil, nil, err
	}
	return httpapi.NewMuxWithCluster(svc, metrics.NewRegistry(), node), node, nil
}

// run starts the server and blocks until ctx is cancelled (SIGINT or
// SIGTERM in production), then shuts down gracefully: the listener
// closes, in-flight handlers get shutdownGrace to finish, and the
// service's build pool drains — queued and in-flight builds are
// cancelled and their workers joined — before run returns. ready, if
// non-nil, receives the bound listen address once the server accepts
// connections (tests listen on ":0").
func run(ctx context.Context, addr string, cfg service.Config, ccfg *cluster.Config, ready chan<- string) error {
	svc := service.New(cfg)
	mux, node, err := newMux(svc, ccfg)
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// No handler blocks on an LP solve anymore — synchronous
		// requests wait on the build pool but their clients can (and
		// should) use PUT admission + status polling for anything slow —
		// so the write deadline is a serving deadline, not a solver
		// budget. A client that hangs up mid-build cancels the build
		// instead of leaving it to warm the cache for nobody.
		WriteTimeout: 30 * time.Second,
		BaseContext:  func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if node != nil {
			node.Close()
		}
		svc.Close()
		return err
	}
	log.Printf("privcountd listening on %s (capacity=%d shards=%d)", ln.Addr(), cfg.Capacity, cfg.Shards)
	if node != nil {
		node.Start()
		log.Printf("privcountd cluster node %s (peers=%d replication=%d)",
			node.Self(), len(node.Status().Peers), node.Replication())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if node != nil {
			node.Close()
		}
		svc.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("privcountd shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	shutdownErr := srv.Shutdown(shCtx)
	// Close after Shutdown: handlers have returned (or been abandoned),
	// so cancelling the remaining builds strands no request, and Close
	// blocks until every worker goroutine has exited. The cluster node
	// goes first — its sync agent imports into svc, so no pull may land
	// after the service starts tearing down.
	if node != nil {
		node.Close()
	}
	svc.Close()
	<-errc // Serve has returned http.ErrServerClosed
	if shutdownErr != nil {
		return fmt.Errorf("privcountd: shutdown: %w", shutdownErr)
	}
	return nil
}

// shutdownGrace bounds how long in-flight handlers may run after a
// termination signal before the server gives up on them.
const shutdownGrace = 10 * time.Second
