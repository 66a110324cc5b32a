package cluster

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privcount/internal/metrics"
	"privcount/internal/service"
)

// RouteMode names how a request for a mechanism ID this node does not
// own reaches the owner. Proxying is the only mode: the node forwards
// the request over its own HTTP client and relays the response, so
// clients see one logical server.
type RouteMode int

// RouteProxy is the proxy route mode, the only one.
const RouteProxy RouteMode = 0

// ParseRouteMode parses a -route-mode flag value: "proxy", or empty for
// the same.
func ParseRouteMode(s string) (RouteMode, error) {
	if s == "" || s == "proxy" {
		return RouteProxy, nil
	}
	return RouteProxy, fmt.Errorf("cluster: unknown route mode %q (proxy is the only mode)", s)
}

// RoutedHeader is the loop-prevention header: a request carrying it has
// already been routed once (by a peer proxy or a query hop) and must be
// served locally regardless of ring ownership. Without it, two nodes
// started with different -peers lists could bounce a request between
// each other forever.
const RoutedHeader = "X-Privcount-Routed"

// Config configures a cluster Node.
type Config struct {
	// Self is this node's base URL exactly as it appears in the peer
	// set (identity on the ring is URL equality).
	Self string
	// Membership is the peer set, Self included. The ring is built from
	// it once, in New.
	Membership Static
	// Replication is the number of peers (owner included) holding each
	// mechanism. Default 2, clamped to the fleet size.
	Replication int
	// PollInterval is the warm-sync period (default 5s).
	PollInterval time.Duration
	// RouteMode is ignored: proxying is the only route mode.
	//
	// Deprecated: leave it zero.
	RouteMode RouteMode
	// HTTPClient is the client used for peer polls, artifact pulls, and
	// proxying (default: a dedicated client with a 30s timeout).
	HTTPClient *http.Client
	// Logf, when non-nil, receives sync-agent diagnostics (peer
	// unreachable, artifact rejected). Default: silent.
	Logf func(format string, args ...any)
}

// DefaultReplication is the replication factor when the config leaves
// it zero: the owner plus one warm replica.
const DefaultReplication = 2

// DefaultPollInterval is the warm-sync period when the config leaves it
// zero.
const DefaultPollInterval = 5 * time.Second

// Node is one privcountd instance's view of the fleet: the ring, the
// warm-sync agent, and the routing decision the HTTP layer asks. Beyond
// its counters the node keeps no per-mechanism state: what it holds is
// the service's to answer (Service.HeldETag). Create with New, start
// the sync loop with Start, and Close before the service shuts down.
type Node struct {
	svc  *service.Service
	cfg  Config
	ring *Ring // built from cfg.Membership in New, never changed

	pulls     atomic.Int64 // artifacts imported from peers
	pullBytes atomic.Int64 // artifact bytes pulled
	conflicts atomic.Int64 // listed peer ETags diverging from a local copy
	rejects   atomic.Int64 // pulled artifacts that failed verification
	syncErrs  atomic.Int64 // peers whose poll or pulls errored in a pass
	syncs     atomic.Int64 // completed sync passes
	lastSync  atomic.Int64 // unix nanos of the last completed pass

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New validates cfg and returns a Node over svc. The returned node
// routes immediately; call Start to begin background warm-sync.
func New(svc *service.Service, cfg Config) (*Node, error) {
	if svc == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	cfg.Self = normalizeURL(cfg.Self)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self URL")
	}
	// Peer URLs are normalized so -self and -peers spellings that differ
	// only in case or trailing slash still match.
	peers := make([]Peer, len(cfg.Membership))
	onRing := false
	for i, p := range cfg.Membership {
		peers[i] = Peer{URL: normalizeURL(p.URL)}
		onRing = onRing || peers[i].URL == cfg.Self
	}
	ring, err := NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	if !onRing {
		return nil, fmt.Errorf("cluster: self %s is not in the peer set", cfg.Self)
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	cfg.Replication = min(cfg.Replication, ring.Size())
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Node{
		svc:  svc,
		cfg:  cfg,
		ring: ring,
		done: make(chan struct{}),
	}, nil
}

// normalizeURL canonicalises a peer URL for ring identity: scheme and
// host lower-cased, trailing slashes dropped. An unparsable URL is
// returned trimmed — New surfaces the failure as a self not on the ring.
func normalizeURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	u, err := url.Parse(s)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return s
	}
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	return strings.TrimRight(u.String(), "/")
}

// Self returns this node's normalized base URL.
func (n *Node) Self() string { return n.cfg.Self }

// Client returns the HTTP client the node uses for peer traffic; the
// HTTP layer's proxy path shares it so peer connection pools are not
// duplicated per subsystem.
func (n *Node) Client() *http.Client { return n.cfg.HTTPClient }

// Replication returns the effective replication factor (clamped to the
// fleet size).
func (n *Node) Replication() int { return n.cfg.Replication }

// ForwardTo is the routing decision for a canonical Spec ID: when this
// node is neither the owner nor a replica of id it returns the owner's
// base URL and true; otherwise it returns false and the node serves id
// itself.
func (n *Node) ForwardTo(id string) (ownerURL string, ok bool) {
	owners := n.ring.Owners(id, n.cfg.Replication)
	for _, p := range owners {
		if p.URL == n.cfg.Self {
			return "", false
		}
	}
	return owners[0].URL, true
}

// Owns reports whether this node is the owner or a replica for id —
// i.e. whether it should hold (and may authoritatively serve) the
// mechanism.
func (n *Node) Owns(id string) bool {
	_, fwd := n.ForwardTo(id)
	return !fwd
}

// Start launches the background warm-sync loop: a first pass after a
// random half to whole PollInterval, then one per PollInterval until
// Close. The delay lets daemons of a fleet started together all listen
// before any polls the others (a pass at once would count each peer
// not yet up as a sync error), and the jitter keeps the nodes' passes
// out of phase. Safe to skip entirely (tests drive SyncNow directly).
func (n *Node) Start() {
	first := n.cfg.PollInterval/2 + rand.N(n.cfg.PollInterval/2+1)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		wait := time.NewTimer(first)
		select {
		case <-n.done:
			wait.Stop()
			return
		case <-wait.C:
		}
		t := time.NewTicker(n.cfg.PollInterval)
		defer t.Stop()
		for {
			n.syncOnce()
			select {
			case <-n.done:
				return
			case <-t.C:
			}
		}
	}()
}

// Close stops the sync loop and waits for any in-flight pass to finish.
// It does not close the underlying service.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.wg.Wait()
}

// Status is a point-in-time snapshot of the node's cluster state, the
// payload behind GET /v2/cluster.
type Status struct {
	// Self is this node's base URL; Peers is the full ring membership
	// (Self included), sorted as configured.
	Self  string
	Peers []string
	// Replication and VirtualNodes are the effective ring parameters.
	Replication  int
	VirtualNodes int
	// PollInterval is the warm-sync period.
	PollInterval time.Duration
	// SyncPasses counts completed sync passes; LastSync is the wall
	// time the last one finished (zero before the first).
	SyncPasses int64
	LastSync   time.Time
	// SyncPulls counts artifacts imported from peers; SyncBytes their
	// total encoded size; SyncConflicts listed peer ETags that diverged
	// from a local copy (kept local, counted); SyncRejects pulled
	// artifacts that failed decode or verification; SyncErrors peers
	// whose poll or pulls failed in a pass — at the HTTP layer, or by
	// listing a locally held ID ready without its ETag.
	SyncPulls, SyncBytes, SyncConflicts, SyncRejects, SyncErrors int64
	// OwnedMechanisms is how many locally cached mechanisms this node
	// owns or replicates; CachedMechanisms is the total local cache
	// population.
	OwnedMechanisms, CachedMechanisms int
}

// Status snapshots the node.
func (n *Node) Status() Status {
	peers := n.ring.Peers()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.URL
	}
	owned, cached := n.ownershipCounts()
	st := Status{
		Self:             n.cfg.Self,
		Peers:            urls,
		Replication:      n.Replication(),
		VirtualNodes:     n.ring.VirtualNodes(),
		PollInterval:     n.cfg.PollInterval,
		SyncPasses:       n.syncs.Load(),
		SyncPulls:        n.pulls.Load(),
		SyncBytes:        n.pullBytes.Load(),
		SyncConflicts:    n.conflicts.Load(),
		SyncRejects:      n.rejects.Load(),
		SyncErrors:       n.syncErrs.Load(),
		OwnedMechanisms:  owned,
		CachedMechanisms: cached,
	}
	if ns := n.lastSync.Load(); ns != 0 {
		st.LastSync = time.Unix(0, ns)
	}
	return st
}

// ownershipCounts walks the local cache snapshot counting entries this
// node owns or replicates.
func (n *Node) ownershipCounts() (owned, cached int) {
	for _, info := range n.svc.Entries() {
		cached++
		if n.Owns(info.Spec.ID()) {
			owned++
		}
	}
	return owned, cached
}

// RegisterMetrics publishes the privcount_cluster_* series on reg —
// all func-backed over atomics the sync agent already maintains, plus
// the two ownership gauges computed from the cache snapshot at scrape
// time. Call once per registry.
func (n *Node) RegisterMetrics(reg *metrics.Registry) {
	reg.NewCounterFunc("privcount_cluster_sync_pulls_total",
		"Artifacts imported from peers by the warm-sync agent.",
		func() float64 { return float64(n.pulls.Load()) })
	reg.NewCounterFunc("privcount_cluster_sync_bytes_total",
		"Artifact bytes pulled from peers by the warm-sync agent.",
		func() float64 { return float64(n.pullBytes.Load()) })
	reg.NewCounterFunc("privcount_cluster_sync_conflicts_total",
		"Listed peer artifact ETags that diverged from a local copy (local kept).",
		func() float64 { return float64(n.conflicts.Load()) })
	reg.NewCounterFunc("privcount_cluster_sync_rejects_total",
		"Pulled artifacts that failed decode or re-verification.",
		func() float64 { return float64(n.rejects.Load()) })
	reg.NewCounterFunc("privcount_cluster_sync_errors_total",
		"Peers whose list poll or artifact pulls failed in a sync pass.",
		func() float64 { return float64(n.syncErrs.Load()) })
	reg.NewCounterFunc("privcount_cluster_sync_passes_total",
		"Completed warm-sync passes over the peer set.",
		func() float64 { return float64(n.syncs.Load()) })
	reg.NewGaugeFunc("privcount_cluster_ring_size",
		"Peers on the consistent-hash ring (self included).",
		func() float64 { return float64(n.ring.Size()) })
	reg.NewGaugeFunc("privcount_cluster_owned_mechanisms",
		"Locally cached mechanisms this node owns or replicates.",
		func() float64 { owned, _ := n.ownershipCounts(); return float64(owned) })
}
