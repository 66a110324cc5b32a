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

// RouteMode selects what a node does with a request for a mechanism ID
// it does not own (see internal/httpapi's routing layer).
type RouteMode int

const (
	// RouteProxy forwards the request to the owner over the node's own
	// HTTP client and relays the response — clients see one logical
	// server. The forwarded request carries RoutedHeader so the owner
	// serves it locally even under a stale ring (no proxy loops).
	RouteProxy RouteMode = iota
	// RouteRedirect answers 307 Temporary Redirect with the owner's URL
	// in Location — cheaper for the non-owner (no relayed bytes), and
	// 307 preserves the method and body, so ring-unaware clients whose
	// HTTP stacks follow redirects still land on the owner.
	RouteRedirect
)

// String renders the mode as its flag spelling ("proxy", "redirect").
func (m RouteMode) String() string {
	if m == RouteRedirect {
		return "redirect"
	}
	return "proxy"
}

// ParseRouteMode parses a -route-mode flag value.
func ParseRouteMode(s string) (RouteMode, error) {
	switch s {
	case "", "proxy":
		return RouteProxy, nil
	case "redirect":
		return RouteRedirect, nil
	}
	return RouteProxy, fmt.Errorf("cluster: unknown route mode %q (want proxy or redirect)", s)
}

// RoutedHeader is the loop-prevention header: a request carrying it has
// already been routed once (by a peer proxy, a redirect, or a query
// hop) and must be served locally regardless of ring ownership.
// Without it, two nodes with momentarily divergent rings could bounce a
// request between each other forever.
const RoutedHeader = "X-Privcount-Routed"

// Config configures a cluster Node.
type Config struct {
	// Self is this node's base URL exactly as it appears in the
	// membership's peer set (identity on the ring is URL equality).
	Self string
	// Membership yields the peer set, Self included. Static covers the
	// -peers flag; the interface is the seam for dynamic membership.
	Membership Membership
	// Replication is the number of peers (owner included) holding each
	// mechanism. Default 2, clamped to the fleet size.
	Replication int
	// VirtualNodes is the per-peer virtual-node count on the ring
	// (default DefaultVirtualNodes).
	VirtualNodes int
	// PollInterval is the warm-sync period (default 5s).
	PollInterval time.Duration
	// RouteMode selects proxy or redirect routing for non-owned IDs.
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
// warm-sync agent, and the ownership queries the HTTP routing layer
// asks. Create with New, start the sync loop with Start, and Close
// before the service shuts down.
type Node struct {
	svc *service.Service
	cfg Config

	// ring is rebuilt from the membership at each sync pass and swapped
	// atomically, so routing reads never block on a membership refresh
	// — the dynamic-membership seam is exactly this pointer.
	ring atomic.Pointer[Ring]

	pulls     atomic.Int64 // artifacts imported from peers
	pullBytes atomic.Int64 // artifact bytes pulled
	conflicts atomic.Int64 // listed peer ETags diverging from a local copy
	rejects   atomic.Int64 // pulled artifacts that failed verification
	syncErrs  atomic.Int64 // peers whose poll or pulls errored in a pass
	syncs     atomic.Int64 // completed sync passes
	lastSync  atomic.Int64 // unix nanos of the last completed pass

	// etags caches the canonical artifact ETag of each local copy this
	// node owns — a ready cache entry or a stored artifact — so a sync
	// pass compares it with the peers' listed ETags without re-encoding
	// or re-reading anything. Keyed by Spec ID; pruned each pass against
	// the ready entries and the store's IDs.
	etagMu sync.Mutex
	etags  map[string]heldTag

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
	if cfg.Membership == nil {
		return nil, fmt.Errorf("cluster: nil membership")
	}
	cfg.Self = normalizeURL(cfg.Self)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self URL")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		svc:   svc,
		cfg:   cfg,
		etags: make(map[string]heldTag),
		done:  make(chan struct{}),
	}
	if err := n.refreshRing(); err != nil {
		return nil, err
	}
	if !n.onRing(cfg.Self) {
		return nil, fmt.Errorf("cluster: self %s is not in the peer set", cfg.Self)
	}
	return n, nil
}

// normalizeURL canonicalises a peer URL for ring identity: scheme and
// host lower-cased, trailing slashes dropped. An unparsable URL is
// returned trimmed — New and refreshRing surface the failure on use.
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

// refreshRing rebuilds the ring from the current membership and swaps
// it in. Peer URLs are normalized so -self and -peers spellings that
// differ only in case or trailing slash still match.
func (n *Node) refreshRing() error {
	peers := n.cfg.Membership.Peers()
	norm := make([]Peer, len(peers))
	for i, p := range peers {
		norm[i] = Peer{URL: normalizeURL(p.URL)}
	}
	ring, err := NewRing(norm, n.cfg.VirtualNodes)
	if err != nil {
		return err
	}
	n.ring.Store(ring)
	return nil
}

// onRing reports whether url is a peer on the current ring.
func (n *Node) onRing(url string) bool {
	for _, p := range n.ring.Load().Peers() {
		if p.URL == url {
			return true
		}
	}
	return false
}

// Self returns this node's normalized base URL.
func (n *Node) Self() string { return n.cfg.Self }

// Client returns the HTTP client the node uses for peer traffic; the
// HTTP layer's proxy path shares it so peer connection pools are not
// duplicated per subsystem.
func (n *Node) Client() *http.Client { return n.cfg.HTTPClient }

// RouteMode returns the configured routing behaviour for non-owned IDs.
func (n *Node) RouteMode() RouteMode { return n.cfg.RouteMode }

// Replication returns the effective replication factor (clamped to the
// current fleet size).
func (n *Node) Replication() int {
	if r := n.ring.Load(); n.cfg.Replication > r.Size() {
		return r.Size()
	}
	return n.cfg.Replication
}

// owners returns the owner+replica set for a canonical Spec ID.
func (n *Node) owners(id string) []Peer {
	return n.ring.Load().Owners(id, n.cfg.Replication)
}

// Owns reports whether this node is the owner or a replica for id —
// i.e. whether it should hold (and may authoritatively serve) the
// mechanism.
func (n *Node) Owns(id string) bool {
	for _, p := range n.owners(id) {
		if p.URL == n.cfg.Self {
			return true
		}
	}
	return false
}

// Owner returns the owning peer's base URL for id and whether that
// owner is this node.
func (n *Node) Owner(id string) (ownerURL string, self bool) {
	p := n.ring.Load().Owner(id)
	return p.URL, p.URL == n.cfg.Self
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
	// Replication and VirtualNodes are the effective ring parameters;
	// RouteMode is "proxy" or "redirect".
	Replication  int
	VirtualNodes int
	RouteMode    string
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
	// owns or replicates under the current ring; CachedMechanisms is
	// the total local cache population.
	OwnedMechanisms, CachedMechanisms int
}

// Status snapshots the node.
func (n *Node) Status() Status {
	ring := n.ring.Load()
	peers := ring.Peers()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.URL
	}
	owned, cached := n.ownershipCounts()
	st := Status{
		Self:             n.cfg.Self,
		Peers:            urls,
		Replication:      n.Replication(),
		VirtualNodes:     ring.VirtualNodes(),
		RouteMode:        n.cfg.RouteMode.String(),
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
// node owns under the current ring.
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
		func() float64 { return float64(n.ring.Load().Size()) })
	reg.NewGaugeFunc("privcount_cluster_owned_mechanisms",
		"Locally cached mechanisms this node owns or replicates under the current ring.",
		func() float64 { owned, _ := n.ownershipCounts(); return float64(owned) })
}
