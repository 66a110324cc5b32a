package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/httpapi"
	"privcount/internal/metrics"
	"privcount/internal/rng"
	"privcount/internal/service"
)

// The traced run explains the end-to-end numbers layer by layer. It
// first runs the workload exactly as the untraced run does, for the
// reference figure, and then replays the inputs of all three workloads
// in this process through each module's public functions, recording one
// span per call boundary. The spans are kept in memory and written to
// a JSON-lines file when the run ends. Spans around the program's own
// internals (lp and mat inside design, the streamer's loop inside
// httpapi) need the program's build trace and are not guessed here.

// e2eRef is the end-to-end figure a workload's layers are summed
// against: server CPU per op for query-stream, mean request latency for
// query-fleet, summed PUT→ready time for build-cold.
type e2eRef struct {
	serverCPUusPerOp float64
	meanLatencyMs    float64
	buildS           float64
}

// span is one timed call at a layer boundary. Count is how many calls
// a span covers when a call is too short to time alone.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int    `json:"count"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// do times f as one span named name under parent and returns its ID.
func (t *tracer) do(name string, parent, count int, f func()) int {
	id := len(t.spans) + 1
	start := time.Now()
	f()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: time.Since(start).Nanoseconds(), Count: count})
	return id
}

// total sums the durations (ns) and counts of the spans named name.
func (t *tracer) total(name string) (ns float64, count int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += float64(s.Dur)
			count += s.Count
		}
	}
	return ns, count
}

// perCall is the mean duration in ns of one call under name.
func (t *tracer) perCall(name string) float64 {
	ns, n := t.total(name)
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates the per-layer metrics of a traced run.
type layers map[string]layerMetric

func (l layers) set(name, unit string, v float64) { l[name] = layerMetric{value: v, unit: unit} }

func runTraced(ctx context.Context, name string, run func(context.Context, *env) (*report, error), e *env) (*report, error) {
	rep, err := run(ctx, e)
	if err != nil || !rep.gate.ok() {
		return rep, err
	}
	tr := &tracer{t0: time.Now()}
	l := layers{}
	streamShare, err := traceStream(tr, l, e)
	if err != nil {
		return nil, fmt.Errorf("tracing query-stream layers: %w", err)
	}
	fleetShare, err := traceFleet(ctx, tr, l, e)
	if err != nil {
		return nil, fmt.Errorf("tracing query-fleet layers: %w", err)
	}
	buildShare, err := traceBuild(tr, l, e)
	if err != nil {
		return nil, fmt.Errorf("tracing build-cold layers: %w", err)
	}
	// query-fleet's run read its routing and sync figures off the real
	// daemons; the other workloads have no fleet and keep the replay's.
	for k, v := range rep.layers {
		l[k] = v
	}
	if len(rep.layers) > 0 {
		e.printf("httpapi.route_* are the entry daemon's /v2/stats and cluster.sync_* all daemons' /v2/cluster, read after the open loop")
	} else {
		e.printf("httpapi.route_* and cluster.sync_* come from the in-process fleet replay (%d requests, sequential): this workload runs no fleet", fleetReplayReqs)
	}
	// The remainder: the share of this workload's end-to-end figure that
	// its layers' summed time does not explain.
	var explained, ref float64
	var what string
	switch name {
	case "query-stream":
		explained, ref, what = streamShare, rep.ref.serverCPUusPerOp*1e3, "server CPU per op"
	case "query-fleet":
		explained, ref, what = fleetShare, rep.ref.meanLatencyMs*1e6, "mean request latency"
	case "build-cold":
		explained, ref, what = buildShare, rep.ref.buildS*1e9, "summed PUT→ready time"
	}
	l.set("remainder_share", "1", 1-explained/ref)
	e.printf("%s remainder_share = %.4f 1 (layers explain %.4g of %.4g ns of %s; target ≤ 0.15)",
		name, 1-explained/ref, explained, ref, what)
	for _, k := range sortedKeys(l) {
		e.printf("layer %s = %.6g %s", k, l[k].value, l[k].unit)
	}
	e.printf("not measured: the lp/mat split inside design solves; lp and mat are reached only from inside design.Solve, so it needs the program's build trace")
	e.printf("not measured: allocations inside the daemons; allocs_per_batch_op is the in-process SampleBatchInto count")
	path := filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	e.printf("trace: %d spans written to %s", len(tr.spans), path)
	rep.layers = l
	return rep, nil
}

// streamReplayOps is how many ops of the query-stream cycle the traced
// replay runs through each layer.
const streamReplayOps = 2048

// traceStream replays query-stream's ops through the PCB1 codec, the
// service, the core sampler and an in-process streaming mux. It returns
// the server-side layer time per op, in ns: op decode, the service call
// and result encode.
func traceStream(tr *tracer, l layers, e *env) (float64, error) {
	in := genStreamInputs(e.seed)
	svc := service.New(service.Config{Capacity: 64, Seed: e.seed})
	defer svc.Close()
	specs := make([]service.Spec, len(in.ids))
	for i, id := range in.ids {
		s, err := service.ParseSpec(id)
		if err != nil {
			return 0, err
		}
		specs[i] = s
		if _, err := svc.Get(s); err != nil {
			return 0, err
		}
	}
	ops := in.ops[:streamReplayOps]
	root := tr.do("trace.query-stream", 0, 1, func() {})

	// Client side: encode ops, decode results.
	var opBytes bytes.Buffer
	fw := client.NewFrameWriter(&opBytes)
	for i := range ops {
		op := &ops[i].op
		tr.do("client.pcb1_encode_op", root, 1, func() { _ = fw.WriteOp(op); _ = fw.Flush() })
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	// Server side: decode each op, run it through the service, encode
	// its result.
	fr := client.NewFrameReader(bytes.NewReader(opBytes.Bytes()))
	var resBytes bytes.Buffer
	rw := client.NewFrameWriter(&resBytes)
	dst := make([]int, streamBatch)
	results := make([]client.OpResult, len(ops))
	var samples int
	var op client.Op
	var serverNs float64
	for i := range ops {
		var err error
		id := tr.do("client.pcb1_decode_op", root, 1, func() { err = fr.ReadOpInto(&op) })
		if err != nil {
			return 0, err
		}
		serverNs += float64(tr.spans[id-1].Dur)
		spec := specs[ops[i].mech]
		var res client.OpResult
		switch op.Op {
		case client.OpBatch:
			id = tr.do("service.batch", root, len(op.Counts), func() { err = svc.SampleBatchInto(spec, op.Counts, dst[:len(op.Counts)]) })
			res.Outputs = append([]int(nil), dst[:len(op.Counts)]...)
			samples += len(op.Counts)
		case client.OpSample:
			var o int
			id = tr.do("service.sample", root, 1, func() { o, err = svc.Sample(spec, op.Count) })
			res.Output = &o
			samples++
		case client.OpEstimate:
			var est *service.Estimate
			id = tr.do("service.estimate", root, 1, func() { est, err = svc.Estimate(spec, op.Outputs) })
			if err == nil {
				res = client.OpResult{MLE: est.MLE, Sum: &est.Sum, Mean: &est.Mean, Unbiased: &est.Unbiased}
			}
		}
		if err != nil {
			return 0, err
		}
		serverNs += float64(tr.spans[id-1].Dur)
		results[i] = res
		id = tr.do("client.pcb1_encode_result", root, 1, func() { err = rw.WriteResult(&res) })
		if err != nil {
			return 0, err
		}
		serverNs += float64(tr.spans[id-1].Dur)
	}
	if err := rw.Close(); err != nil {
		return 0, err
	}
	rr := client.NewFrameReader(bytes.NewReader(resBytes.Bytes()))
	for range ops {
		var err error
		tr.do("client.pcb1_decode_result", root, 1, func() { _, err = rr.ReadResult() })
		if err != nil {
			return 0, err
		}
	}
	reqs := make([]client.Op, len(ops))
	for i := range ops {
		reqs[i] = ops[i].op
	}
	jreq, err := json.Marshal(client.QueryRequest{Ops: reqs})
	if err != nil {
		return 0, err
	}
	jres, err := json.Marshal(client.QueryResponse{Results: results})
	if err != nil {
		return 0, err
	}
	l.set("client.pcb1_encode_ns_per_op", "ns", tr.perCall("client.pcb1_encode_op"))
	l.set("client.pcb1_decode_ns_per_result", "ns", tr.perCall("client.pcb1_decode_result"))
	l.set("client.pcb1_decode_ns_per_op", "ns", tr.perCall("client.pcb1_decode_op"))
	l.set("client.pcb1_encode_ns_per_result", "ns", tr.perCall("client.pcb1_encode_result"))
	l.set("client.pcb1_bytes_per_sample", "B", float64(opBytes.Len()+resBytes.Len())/float64(samples))
	l.set("client.json_bytes_per_sample", "B", float64(len(jreq)+len(jres))/float64(samples))
	l.set("service.batch_ns_per_sample", "ns", tr.perCall("service.batch"))
	l.set("service.estimate_us_per_op", "us", tr.perCall("service.estimate")/1e3)

	// Short calls are timed in loops; the span's count is the loop length.
	const loops = 20000
	tok := in.ids[0]
	tr.do("service.spec_parse", root, loops, func() {
		for i := 0; i < loops; i++ {
			s, _ := service.ParseSpec(tok)
			_ = s.Canonical().ID()
		}
	})
	tr.do("service.lookup", root, loops, func() {
		for i := 0; i < loops; i++ {
			_, _ = svc.Peek(specs[i%len(specs)])
		}
	})
	l.set("service.spec_parse_ns", "ns", tr.perCall("service.spec_parse"))
	l.set("service.lookup_ns", "ns", tr.perCall("service.lookup"))

	// The core sampler alone, on the same batches: the gap to
	// service.batch_ns_per_sample is the cache lookup and RNG pool.
	src := rng.New(e.seed)
	for i := range ops {
		if ops[i].op.Op != client.OpBatch {
			continue
		}
		ent, err := svc.Peek(specs[ops[i].mech])
		if err != nil {
			return 0, err
		}
		counts := ops[i].op.Counts
		tr.do("core.sample", root, len(counts), func() { ent.Sampler().SampleManyInto(src, counts, dst[:len(counts)]) })
	}
	l.set("core.sample_ns_per_sample", "ns", tr.perCall("core.sample"))

	// Allocations per batch op on the serving path (zero by design).
	var ms0, ms1 runtime.MemStats
	batch := ops[0].op.Counts
	spec0 := specs[ops[0].mech]
	for i := range ops {
		if ops[i].op.Op == client.OpBatch {
			batch, spec0 = ops[i].op.Counts, specs[ops[i].mech]
			break
		}
	}
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 1000; i++ {
		_ = svc.SampleBatchInto(spec0, batch, dst)
	}
	runtime.ReadMemStats(&ms1)
	l.set("service.allocs_per_batch_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/1000)

	// The streaming handler in-process, over loopback: one SDK stream
	// with a window of ops in flight.
	srv := httptest.NewServer(httpapi.NewMux(svc))
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		return 0, err
	}
	var streamErr error
	tr.do("httpapi.stream", root, len(ops), func() { streamErr = pipeline(c, reqs) })
	if streamErr != nil {
		return 0, streamErr
	}
	l.set("httpapi.stream_us_per_op", "us", tr.perCall("httpapi.stream")/1e3)
	return serverNs / float64(len(ops)), nil
}

// pipeline sends ops over one QueryStream with streamWindow in flight
// and reads every result.
func pipeline(c *client.Client, ops []client.Op) error {
	st, err := c.QueryStream(context.Background())
	if err != nil {
		return err
	}
	defer st.Close()
	sent := 0
	for recvd := 0; recvd < len(ops); recvd++ {
		for sent < len(ops) && sent-recvd < streamWindow {
			if err := st.Send(&ops[sent]); err != nil {
				return err
			}
			sent++
			if sent == len(ops) {
				if err := st.CloseSend(); err != nil {
					return err
				}
			}
		}
		res, err := st.Recv()
		if err != nil {
			return err
		}
		if res.Error != nil {
			return res.Error
		}
	}
	return nil
}

// fleetReplayReqs is how many requests of the query-fleet schedule the
// traced replay runs.
const fleetReplayReqs = 600

// inprocFleet is a three-node fleet inside this process: real services,
// cluster nodes and muxes over loopback listeners.
type inprocFleet struct {
	urls  []string
	srvs  []*httptest.Server
	nodes []*cluster.Node
	svcs  []*service.Service
}

func (f *inprocFleet) close() {
	for i := range f.srvs {
		f.srvs[i].Close()
		f.nodes[i].Close()
		f.svcs[i].Close()
	}
}

func startInprocFleet(seed uint64) (*inprocFleet, error) {
	f := &inprocFleet{}
	ls := make([]net.Listener, fleetNodes)
	peers := make([]cluster.Peer, fleetNodes)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls[i] = l
		f.urls = append(f.urls, "http://"+l.Addr().String())
		peers[i] = cluster.Peer{URL: f.urls[i]}
	}
	for i := range ls {
		svc := service.New(service.Config{Capacity: fleetCapacity, Seed: seed + uint64(i)})
		node, err := cluster.New(svc, cluster.Config{Self: f.urls[i], Membership: cluster.Static(peers),
			Replication: fleetReplication, PollInterval: fleetSyncInterval, RouteMode: cluster.RouteProxy})
		if err != nil {
			svc.Close()
			f.close()
			return nil, err
		}
		srv := httptest.NewUnstartedServer(httpapi.NewMuxWithCluster(svc, metrics.NewRegistry(), node))
		srv.Listener.Close()
		srv.Listener = ls[i]
		srv.Start()
		node.Start()
		f.srvs, f.nodes, f.svcs = append(f.srvs, srv), append(f.nodes, node), append(f.svcs, svc)
	}
	return f, nil
}

// post sends a JSON query to url and returns the raw response body.
func post(url string, body []byte, routed bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v2/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", client.ContentTypeJSON)
	if routed {
		req.Header.Set(cluster.RoutedHeader, "perfbench")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s/v2/query answered %d: %s", url, resp.StatusCode, b)
	}
	return b, err
}

// traceFleet replays the head of query-fleet's schedule through an
// in-process fleet. It returns the mean per-request time, in ns, along
// the blocking path: JSON encode, one loopback round trip, the entry's
// handler on the local ops, one forward hop when any op is forwarded,
// and JSON decode.
func traceFleet(ctx context.Context, tr *tracer, l layers, e *env) (float64, error) {
	in := genFleetInputs(e.seed)
	f, err := startInprocFleet(e.seed)
	if err != nil {
		return 0, err
	}
	defer f.close()
	rv, err := newRing(f.urls, f.urls[0])
	if err != nil {
		return 0, err
	}
	local, remote, err := bindSlots(rv)
	if err != nil {
		return 0, err
	}
	entry := newSDK(f.urls[0], 1)
	if _, err := admit(ctx, entry, append(append([]string(nil), local...), remote...)); err != nil {
		return 0, err
	}
	cold, err := coldSpecs(e.seed, in.coldPerCycle)
	if err != nil {
		return 0, err
	}
	bind := func(ref slotRef) string {
		switch ref.kind {
		case slotLocal:
			return local[ref.k]
		case slotRemote:
			return remote[ref.k]
		}
		return cold[ref.k]
	}
	entryMux := f.srvs[0].Config.Handler
	root := tr.do("trace.query-fleet", 0, 1, func() {})
	var pathNs float64
	var queryOps, forwarded, nreq int
	for i := 0; i < fleetReplayReqs; i++ {
		req := &in.reqs[i]
		nreq++
		var code int
		id := tr.do("httpapi.loopback_rtt", root, 1, func() { _, code, err = rawGet(ctx, f.urls[0]+"/healthz", false) })
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("healthz on the in-process fleet: %d %v", code, err)
		}
		pathNs += float64(tr.spans[id-1].Dur)
		if req.get {
			owner := rv.r.Owner(bind(req.slot)).URL
			id := tr.do("cluster.forward_hop_get", root, 1, func() {
				_, _, err = rawGet(ctx, owner+"/v2/mechanisms/"+bind(req.slot), true)
			})
			if err != nil {
				return 0, err
			}
			pathNs += float64(tr.spans[id-1].Dur)
			continue
		}
		ops := make([]client.Op, len(req.ops))
		var localOps []client.Op
		var fwd []client.Op
		for j, fo := range req.ops {
			ops[j] = client.Op{Op: fo.op, ID: bind(fo.slot), Count: fo.count, Counts: fo.counts, Outputs: fo.outputs, Seed: fo.seed}
			var ownerHolds bool
			tr.do("cluster.ring_owner", root, 1, func() { ownerHolds = rv.holds(ops[j].ID) })
			queryOps++
			if ownerHolds {
				localOps = append(localOps, ops[j])
			} else {
				forwarded++
				fwd = append(fwd, ops[j])
			}
		}
		var body []byte
		id = tr.do("client.json_encode", root, 1, func() { body, err = json.Marshal(client.QueryRequest{Ops: ops}) })
		if err != nil {
			return 0, err
		}
		pathNs += float64(tr.spans[id-1].Dur)
		if len(localOps) > 0 {
			lb, _ := json.Marshal(client.QueryRequest{Ops: localOps})
			var code int
			id = tr.do("httpapi.query_json", root, 1, func() {
				r := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(lb))
				r.Header.Set("Content-Type", client.ContentTypeJSON)
				w := httptest.NewRecorder()
				entryMux.ServeHTTP(w, r)
				code = w.Code
			})
			if code != http.StatusOK {
				return 0, fmt.Errorf("in-process query answered %d", code)
			}
			pathNs += float64(tr.spans[id-1].Dur)
		}
		if len(fwd) > 0 {
			// One forwarded op per request sits on the blocking path; the
			// entry forwards concurrently.
			fb, _ := json.Marshal(client.QueryRequest{Ops: fwd[:1]})
			owner := rv.r.Owner(fwd[0].ID).URL
			id = tr.do("cluster.forward_hop", root, 1, func() { _, err = post(owner, fb, true) })
			if err != nil {
				return 0, err
			}
			pathNs += float64(tr.spans[id-1].Dur)
		}
		resp, err := post(f.urls[0], body, false)
		if err != nil {
			return 0, err
		}
		var qr client.QueryResponse
		id = tr.do("client.json_decode", root, 1, func() { err = json.Unmarshal(resp, &qr) })
		if err != nil {
			return 0, err
		}
		pathNs += float64(tr.spans[id-1].Dur)
	}
	l.set("client.json_encode_us_per_req", "us", tr.perCall("client.json_encode")/1e3)
	l.set("client.json_decode_us_per_resp", "us", tr.perCall("client.json_decode")/1e3)
	l.set("httpapi.query_json_us_per_req", "us", tr.perCall("httpapi.query_json")/1e3)
	l.set("httpapi.loopback_rtt_us", "us", tr.perCall("httpapi.loopback_rtt")/1e3)
	l.set("cluster.forward_hop_ms", "ms", tr.perCall("cluster.forward_hop")/1e6)
	l.set("cluster.forward_share", "1", float64(forwarded)/float64(queryOps))
	const loops = 20000
	ids := append(append([]string(nil), local...), remote...)
	tr.do("cluster.ring_owners_loop", root, loops, func() {
		for i := 0; i < loops; i++ {
			_ = rv.r.Owners(ids[i%len(ids)], fleetReplication)
		}
	})
	l.set("cluster.ring_owner_ns", "ns", tr.perCall("cluster.ring_owners_loop"))
	p50, p99, err := routeLatency(ctx, f.urls[0])
	if err != nil {
		return 0, err
	}
	l.set("httpapi.route_p50_ms", "ms", p50*1e3)
	l.set("httpapi.route_p99_ms", "ms", p99*1e3)
	var pulls, bytesPulled, rejects int64
	for _, u := range f.urls {
		cs, err := newSDK(u, 1).ClusterStatus(ctx)
		if err != nil {
			return 0, err
		}
		pulls, bytesPulled, rejects = pulls+cs.SyncPulls, bytesPulled+cs.SyncBytes, rejects+cs.SyncRejects
	}
	l.set("cluster.sync_pulls", "count", float64(pulls))
	l.set("cluster.sync_bytes", "B", float64(bytesPulled))
	l.set("cluster.sync_rejects", "count", float64(rejects))
	return pathNs / float64(nreq), nil
}

// designCall solves one lattice spec the way the service's build does
// and returns the mechanism with its closed property set and α.
func designCall(spec service.Spec) (m *core.Mechanism, props core.PropertySet, alpha float64, err error) {
	switch spec.Kind {
	case service.KindChoose:
		ch, err := design.Choose(spec.N, spec.Alpha, spec.Props)
		if err != nil {
			return nil, 0, 0, err
		}
		return ch.Mechanism, ch.Props, spec.Alpha, nil
	default:
		r, err := solveLP(spec)
		if err != nil {
			return nil, 0, 0, err
		}
		return r.Mechanism, core.Closure(spec.Props), spec.Alpha, nil
	}
}

// solveLP runs the design LP of an lp, lp-minimax or band-path choose
// spec and returns its result with the LP diagnostics.
func solveLP(spec service.Spec) (*design.Result, error) {
	p := design.Problem{N: spec.N, Alpha: spec.Alpha, Props: spec.Props,
		Objective:      design.Objective{P: spec.ObjectiveP},
		ReduceSymmetry: spec.Props&core.Symmetry != 0}
	switch spec.Kind {
	case service.KindLPMinimax:
		return design.SolveMinimax(p)
	case service.KindChoose:
		// The Figure 5 column-property branch at α > ½ is WM.
		p.Props, p.ReduceSymmetry = design.WMProps, true
		return design.Solve(p)
	}
	return design.Solve(p)
}

// traceBuild replays build-cold's lattice in this process. Pass one runs
// the lattice in the daemon's order from cold design caches — the same
// design calls, serving tables, artifact encode and store write — and
// its blocking-path sum is returned (ns). Pass two solves each spec with
// the caches cleared first, per design route; pass three re-solves the
// α-sweep warm.
func traceBuild(tr *tracer, l layers, e *env) (float64, error) {
	dir := filepath.Join(e.workdir, "trace-store")
	store, err := service.NewFSStore(dir)
	if err != nil {
		return 0, err
	}
	root := tr.do("trace.build-cold", 0, 1, func() {})
	design.ClearCache()
	var pathNs, artBytes float64
	for _, ls := range buildLattice {
		spec, err := service.ParseSpec(ls.id)
		if err != nil {
			return 0, err
		}
		var m *core.Mechanism
		var props core.PropertySet
		var alpha float64
		id := tr.do("design.build_"+ls.route, root, 1, func() { m, props, alpha, err = designCall(spec) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", ls.id, err)
		}
		pathNs += float64(tr.spans[id-1].Dur)
		id = tr.do("core.sampler_build", root, 1, func() { _, err = core.NewSampler(m) })
		if err != nil {
			return 0, err
		}
		pathNs += float64(tr.spans[id-1].Dur)
		var mle []int
		id = tr.do("core.mle_table", root, 1, func() { mle = m.MLETable() })
		pathNs += float64(tr.spans[id-1].Dur)
		var debias []float64
		var derr error
		id = tr.do("core.debias", root, 1, func() { debias, derr = m.UnbiasedEstimator() })
		pathNs += float64(tr.spans[id-1].Dur)
		var viol string
		tr.do("core.dp_check", root, 1, func() { viol = m.DPViolation(alpha, core.DefaultTol) + m.Violation(props, core.DefaultTol) })
		if viol != "" {
			return 0, fmt.Errorf("%s fails its certificate in the replay: %s", ls.id, viol)
		}
		a := &service.Artifact{Spec: spec.Canonical(), Name: m.Name(), Props: props, Alpha: alpha,
			Probs: m.AppendProbsRowMajor(nil), MLE: mle, Debias: debias}
		if derr != nil {
			a.DebiasErr = derr.Error()
		}
		var data []byte
		tr.do("service.artifact_encode", root, 1, func() { data = a.Encode() })
		artBytes += float64(len(data))
		tr.do("service.store_put", root, 1, func() { err = store.Put(ls.id, data) })
		if err != nil {
			return 0, err
		}
		var got []byte
		tr.do("service.store_get", root, 1, func() { got, err = store.Get(ls.id) })
		if err != nil {
			return 0, err
		}
		var dec *service.Artifact
		tr.do("service.artifact_decode", root, 1, func() { dec, err = service.DecodeArtifact(got) })
		if err != nil {
			return 0, err
		}
		tr.do("service.instantiate", root, 1, func() { _, _, err = dec.Instantiate() })
		if err != nil {
			return 0, err
		}
	}
	ms := func(name string) float64 { ns, _ := tr.total(name); return ns / 1e6 }
	l.set("core.sampler_build_ms", "ms", ms("core.sampler_build"))
	l.set("core.mle_table_ms", "ms", ms("core.mle_table"))
	l.set("core.debias_ms", "ms", ms("core.debias"))
	l.set("core.dp_check_ms", "ms", ms("core.dp_check"))
	l.set("service.artifact_encode_ms", "ms", ms("service.artifact_encode"))
	l.set("service.store_put_ms", "ms", ms("service.store_put"))
	l.set("service.store_get_ms", "ms", ms("service.store_get"))
	l.set("service.artifact_decode_ms", "ms", ms("service.artifact_decode"))
	l.set("service.instantiate_ms", "ms", ms("service.instantiate"))
	l.set("service.artifact_bytes", "B", artBytes)

	// Cold solves per route, each from cleared caches.
	var iters, rows, vars float64
	for _, ls := range buildLattice {
		spec, _ := service.ParseSpec(ls.id)
		design.ClearCache()
		var r *design.Result
		tr.do("design.solve_"+ls.route, root, 1, func() { r, err = solveLP(spec) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", ls.id, err)
		}
		iters, rows, vars = iters+float64(r.Iterations), rows+float64(r.Rows), vars+float64(r.Variables)
	}
	for _, route := range []string{"band", "full_sym", "full", "minimax"} {
		ns, _ := tr.total("design.solve_" + route)
		l.set("design.solve_s."+route, "s", ns/1e9)
	}
	l.set("design.iterations", "count", iters)
	l.set("design.rows", "count", rows)
	l.set("design.vars", "count", vars)

	// The α-sweep re-solved warm: clear once, then each α in turn; the
	// re-solves after the first reuse the shape's warm basis.
	design.ClearCache()
	first := true
	for _, ls := range buildLattice {
		if !ls.sweep {
			continue
		}
		spec, _ := service.ParseSpec(ls.id)
		name := "design.warm_resolve"
		if first {
			name, first = "design.sweep_first", false
		}
		tr.do(name, root, 1, func() { _, err = solveLP(spec) })
		if err != nil {
			return 0, err
		}
	}
	ns, _ := tr.total("design.warm_resolve")
	l.set("design.warm_resolve_s", "s", ns/1e9)
	return pathNs, nil
}
