package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// streamSetupReps is how many times a run sets its daemon up from
// scratch; setup_s is the median.
const streamSetupReps = 7

// warmup runs load before the measured window, so connection set-up,
// first-touch page faults and the sampler pools are settled.
const warmup = time.Second

// streamWindow is how many ops each stream keeps in flight. It is a few
// times the server's 64-result flush batch, so the server never waits
// for ops and the client never waits for a flush.
const streamWindow = 256

// newSDK returns an SDK client for base that polls builds every 2ms.
func newSDK(base string, conns int) *client.Client {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	c, err := client.New(base, client.WithHTTPClient(hc), client.WithPollInterval(2*time.Millisecond, 2*time.Millisecond))
	if err != nil {
		panic(err)
	}
	return c
}

// admit PUTs every id and waits until all are ready, returning each
// one's PUT→ready wall time in seconds.
func admit(ctx context.Context, c *client.Client, ids []string) ([]float64, error) {
	specs := make([]service.Spec, len(ids))
	starts := make([]time.Time, len(ids))
	for i, id := range ids {
		s, err := service.ParseSpec(id)
		if err != nil {
			return nil, err
		}
		specs[i] = s
		starts[i] = time.Now()
		if _, err := c.Create(ctx, s); err != nil {
			return nil, fmt.Errorf("admitting %s: %w", id, err)
		}
	}
	secs := make([]float64, len(ids))
	for i, s := range specs {
		if _, err := c.WaitReady(ctx, s); err != nil {
			return nil, fmt.Errorf("waiting for %s: %w", ids[i], err)
		}
		secs[i] = time.Since(starts[i]).Seconds()
	}
	return secs, nil
}

// streamer is one load goroutine's state: a pipelined closed loop over
// one binary query stream.
type streamer struct {
	in    *streamInputs
	enc   *encodedOps
	certs []*certified
	start int // offset into the op cycle
	next  int // ops sent on earlier streams

	done     atomic.Int64 // results received
	samples  atomic.Int64 // noisy outputs received
	inWindow atomic.Bool

	lat   []float64 // per-op latency in the measured window, ms
	at    []int64   // each latency's completion time, Unix ns
	tally tally
	hist  [][][]int64 // [mech][probe][output], unseeded batch draws
	seen  map[int][]int
	bad   []string
}

// streamLife bounds one stream's lifetime. privcountd's 30 s write
// deadline ends any response older than that, so each generator
// goroutine replaces its stream well before then.
const streamLife = 10 * time.Second

// sendGroup is how many ops go out in one write. The SDK's Stream.Send
// flushes after every op, one write system call each. At saturation that
// put a third of the generator's CPU into system calls and made the
// generator, not the daemon, the bottleneck. The daemon's CPU per op then
// followed how many ops each of its reads happened to find, so it moved
// with the generator's core. The stream therefore sends the op cycle,
// encoded once by the SDK's FrameWriter, a group at a time, and decodes
// results with the SDK's FrameReader. The group is the server's result
// flush window.
const sendGroup = 64

// encodedOps is an op cycle encoded once with the SDK's FrameWriter.
type encodedOps struct {
	magic []byte // what opens a binary stream
	end   []byte // the end-of-stream marker
	buf   []byte
	off   []int // op k's frame is buf[off[k]:off[k+1]]
}

func encodeOps(ops []streamInput) (*encodedOps, error) {
	// An empty stream is the magic followed by the end marker, one byte.
	var empty bytes.Buffer
	if err := client.NewFrameWriter(&empty).Close(); err != nil {
		return nil, err
	}
	b := empty.Bytes()
	e := &encodedOps{magic: b[:len(b)-1], end: b[len(b)-1:]}
	var buf bytes.Buffer
	fw := client.NewFrameWriter(&buf)
	e.off = append(e.off, len(e.magic))
	for i := range ops {
		if err := fw.WriteOp(&ops[i].op); err != nil {
			return nil, fmt.Errorf("encoding op %d: %w", i, err)
		}
		if err := fw.Flush(); err != nil {
			return nil, err
		}
		e.off = append(e.off, buf.Len())
	}
	e.buf = buf.Bytes()
	if !bytes.HasPrefix(e.buf, e.magic) {
		return nil, fmt.Errorf("encoded ops do not open with the stream magic")
	}
	return e, nil
}

// run keeps one stream open at a time until stop closes.
func (s *streamer) run(ctx context.Context, hc *http.Client, url string, stop <-chan struct{}) error {
	for {
		stopped, err := s.runOne(ctx, hc, url, stop)
		if err != nil || stopped {
			return err
		}
	}
}

// runOne drives one binary POST /v2/query until stop closes or
// streamLife passes, then ends its op stream and drains the results.
// It reports whether stop closed.
func (s *streamer) runOne(ctx context.Context, hc *http.Client, url string, stop <-chan struct{}) (bool, error) {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/query", pr)
	if err != nil {
		cancel()
		return false, err
	}
	req.Header.Set("Content-Type", client.ContentTypeBinary)
	req.Header.Set("Accept", client.ContentTypeBinary)
	type answer struct {
		resp *http.Response
		err  error
	}
	answers := make(chan answer, 1)
	go func() {
		resp, err := hc.Do(req)
		if err != nil {
			pr.CloseWithError(err) // unblocks a write into the abandoned body
		}
		answers <- answer{resp, err}
	}()
	var (
		answered bool
		resp     *http.Response
		fr       *client.FrameReader
	)
	defer func() {
		cancel()
		pw.CloseWithError(errors.New("stream closed"))
		if !answered {
			a := <-answers // the request goroutine has ended
			resp = a.resp
		}
		if resp != nil {
			resp.Body.Close()
		}
	}()
	recv := func() (client.OpResult, error) {
		if !answered {
			a := <-answers
			answered, resp = true, a.resp
			if a.err != nil {
				return client.OpResult{}, a.err
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != client.ContentTypeBinary {
				return client.OpResult{}, fmt.Errorf("stream answered %s (%s)", resp.Status, resp.Header.Get("Content-Type"))
			}
			fr = client.NewFrameReader(resp.Body)
		}
		if fr == nil {
			return client.OpResult{}, errors.New("stream has no result side")
		}
		return fr.ReadResult()
	}

	e := s.enc
	nops := len(s.in.ops)
	sendAt := make([]time.Time, streamWindow)
	group := append([]byte(nil), e.magic...)
	expire := time.Now().Add(streamLife)
	sent, recvd := 0, 0
	closing, stopped := false, false
	for {
		if !closing {
			select {
			case <-stop:
				closing, stopped = true, true
			default:
				closing = time.Now().After(expire)
			}
			if closing {
				if _, err := pw.Write(e.end); err != nil {
					return false, err
				}
				pw.Close()
			}
		}
		for !closing && sent-recvd <= streamWindow-sendGroup {
			now := time.Now()
			for g := 0; g < sendGroup; g++ {
				k := (s.start + s.next + sent) % nops
				sendAt[sent%streamWindow] = now
				group = append(group, e.buf[e.off[k]:e.off[k+1]]...)
				sent++
			}
			if _, err := pw.Write(group); err != nil {
				// The send side only breaks when the exchange failed;
				// the receive side carries the cause.
				_, rerr := recv()
				return false, fmt.Errorf("stream send after %d ops: %w (exchange: %v)", sent, err, rerr)
			}
			s.tally.attempted += sendGroup
			group = group[:0]
		}
		if recvd == sent {
			s.next += sent
			return stopped, nil
		}
		res, err := recv()
		if err == io.EOF {
			return false, fmt.Errorf("stream ended after %d of %d results", recvd, sent)
		}
		if err != nil {
			return false, fmt.Errorf("stream recv: %w", err)
		}
		now := time.Now()
		k := (s.start + s.next + recvd) % nops
		if s.inWindow.Load() {
			s.lat = append(s.lat, float64(now.Sub(sendAt[recvd%streamWindow]))/1e6)
			s.at = append(s.at, now.UnixNano())
		}
		s.check(k, &res)
		recvd++
		s.done.Add(1)
	}
}

// check verifies one result and accumulates its draws.
func (s *streamer) check(k int, res *client.OpResult) {
	in := &s.in.ops[k]
	if res.Error != nil {
		s.tally.fail(string(res.Error.Code))
		return
	}
	cm := s.certs[in.mech]
	if msg := checkResult(cm, &in.op, res); msg != "" {
		if len(s.bad) < 5 {
			s.bad = append(s.bad, msg)
		}
		return
	}
	switch in.op.Op {
	case client.OpSample:
		s.samples.Add(1)
	case client.OpBatch:
		s.samples.Add(int64(len(res.Outputs)))
		if in.op.Seed != nil {
			if prev, ok := s.seen[k]; ok {
				if !sameInts(prev, res.Outputs) && len(s.bad) < 5 {
					s.bad = append(s.bad, fmt.Sprintf("%s: seeded batch %d answered differently on a repeat", cm.id, k))
				}
			} else {
				s.seen[k] = append([]int(nil), res.Outputs...)
			}
		} else if k%8 == 1 {
			probes := s.in.probes[in.mech]
			for i, j := range in.op.Counts {
				p := 0
				for probes[p] != j {
					p++
				}
				s.hist[in.mech][p][res.Outputs[i]]++
			}
		}
	}
}

func runStream(ctx context.Context, e *env) (*report, error) {
	in := genStreamInputs(e.seed)
	rep := &report{metrics: map[string]float64{}}
	var fl daemonSet
	defer fl.stopAll()

	// Set-up is a CPU-bound build on the daemon's core, so it is scaled
	// like the window's figures: by the unstolen share and the host speed
	// over each set-up's span.
	setupProbe, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer setupProbe.stop()
	var d *daemon
	var spans []slice // the start and end of each set-up
	var rawSetups []float64
	var store string
	for i := 0; i < streamSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, err
		}
		store = filepath.Join(e.workdir, fmt.Sprintf("stream-%d-store", i))
		if err := os.MkdirAll(store, 0o755); err != nil {
			return nil, err
		}
		t0 := slice{t: time.Now(), steal: hostSteal()}
		d, err = startDaemon(e.bin, addrs[0], filepath.Join(e.workdir, fmt.Sprintf("stream-%d.log", i)),
			"-seed", fmt.Sprint(e.seed), "-store-dir", store)
		if err != nil {
			return nil, err
		}
		fl.add(d)
		// One spec at a time, so the build order is the same on every run.
		c := newSDK(d.url, 1)
		for _, id := range in.ids {
			if _, err := admit(ctx, c, []string{id}); err != nil {
				return nil, err
			}
		}
		t1 := slice{t: time.Now(), steal: hostSteal()}
		spans = append(spans, t0, t1)
		rawSetups = append(rawSetups, t1.t.Sub(t0.t).Seconds())
	}
	setupRuns, err := setupProbe.stop()
	if err != nil {
		return nil, err
	}
	sp, err := newSpeeds(setupRuns)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < len(spans); i += 2 {
		span := spans[i : i+2]
		setups = append(setups, span[1].t.Sub(span[0].t).Seconds()*unstolen(span)[1]*sp.over(span[0].t, span[1].t))
	}
	rep.metrics["setup_s"] = median(setups)
	e.printf("query-stream setup_s = %.4f s (median of %d: spawn + build of %d mechanisms, in unstolen time at reference speed; as measured %.4f s)",
		median(setups), len(setups), len(in.ids), median(rawSetups))

	// The serving daemon restarts on the last set-up's store, as a
	// production node does. Its heap then holds the serving tables and
	// none of the builds' garbage, whose GC timing would otherwise decide
	// rss_mb.
	// Certify the set on the daemon that built it. Every answer under load
	// is checked against these artifacts, and after the load the serving
	// daemon must still hold them byte for byte. Exporting them from the
	// serving daemon before the load would leave tens of megabytes of
	// encoding garbage in its heap, and when that was collected decided
	// rss_mb.
	certMap := certifyAll(ctx, newSDK(d.url, 1), in.ids, &rep.gate)
	if !rep.gate.ok() {
		return rep, nil
	}
	certs := make([]*certified, len(in.ids))
	for i, id := range in.ids {
		certs[i] = certMap[id]
	}
	if err := waitStored(ctx, store, len(in.ids)); err != nil {
		return nil, err
	}
	d.stop()
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	d, err = startDaemon(e.bin, addrs[0], filepath.Join(e.workdir, "stream-serve.log"),
		"-seed", fmt.Sprint(e.seed), "-store-dir", store)
	if err != nil {
		return nil, err
	}
	fl.add(d)
	warm := newSDK(d.url, 1)
	for _, id := range in.ids {
		if _, err := admit(ctx, warm, []string{id}); err != nil {
			return nil, err
		}
	}

	nstreams := runtime.NumCPU()
	ss := make([]*streamer, nstreams)
	// Each stream gets a fresh connection: a connection a finished stream
	// leaves in the pool can be reset by the server, failing the next
	// stream's first writes.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true, DisableCompression: true}}
	enc, err := encodeOps(in.ops)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	errs := make([]error, nstreams)
	var wg sync.WaitGroup
	for i := range ss {
		s := &streamer{in: &in, enc: enc, certs: certs, start: i * len(in.ops) / nstreams, seen: map[int][]int{},
			lat: make([]float64, 0, 1<<20), at: make([]int64, 0, 1<<20)}
		s.hist = make([][][]int64, len(in.ids))
		for m := range s.hist {
			s.hist[m] = make([][]int64, len(in.probes[m]))
			for p := range s.hist[m] {
				s.hist[m][p] = make([]int64, certs[m].n+1)
			}
		}
		ss[i] = s
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ss[i].run(ctx, hc, d.url, stop)
		}(i)
	}
	sleepCtx(ctx, warmup)
	opsNow := func() (n int64) {
		for _, s := range ss {
			n += s.done.Load()
		}
		return n
	}
	samplesNow := func() (n int64) {
		for _, s := range ss {
			n += s.samples.Load()
		}
		return n
	}
	for _, s := range ss {
		s.inWindow.Store(true)
	}
	probe, err := startSpeedProbe()
	if err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	samples0 := samplesNow()
	slices, werr := sampleWindow(ctx, time.Now().Add(time.Duration(e.seconds*float64(time.Second))), opsNow, d)
	samples1 := samplesNow()
	kernelRuns, perr := probe.stop()
	for _, s := range ss {
		s.inWindow.Store(false)
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	if perr != nil {
		return nil, perr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	peak, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	ctl := newSDK(d.url, 1)
	for _, id := range in.ids {
		spec, err := service.ParseSpec(id)
		if err != nil {
			return nil, err
		}
		data, err := ctl.ExportArtifact(ctx, spec)
		if err != nil {
			rep.gate.failf("certificate: fetching the served artifact of %s: %v", id, err)
		} else if sha256.Sum256(data) != certMap[id].sum {
			rep.gate.failf("%s: the serving daemon's artifact differs from the certified one", id)
		}
	}

	// Two things that are not the program move this workload's figures on
	// a shared host: the hypervisor stealing the guest's CPUs, which moved
	// throughput and latency by a fifth between runs, and the host's own
	// speed (hostspeed.go). Both cores are saturated, so every stolen tick
	// is lost to the closed loop. Each one-second slice's wall time, and
	// each latency that ended in it, is therefore scaled by the share of
	// the host's CPU time the hypervisor left the guest in that slice; and
	// every figure of the slice is scaled to the reference host speed.
	unst := unstolen(slices)
	speed, err := hostSpeeds(slices, kernelRuns)
	if err != nil {
		return nil, err
	}
	hist := newHistograms()
	var lat, rawLat []float64
	for _, s := range ss {
		rep.tally.merge(&s.tally)
		rawLat = append(rawLat, s.lat...)
		for i, l := range s.lat {
			k := sliceOf(slices, time.Unix(0, s.at[i]))
			lat = append(lat, l*unst[k]*speed[k])
		}
		for _, msg := range s.bad {
			rep.gate.failf("%s", msg)
		}
		for m := range s.hist {
			for p, j := range in.probes[m] {
				col := hist.column(in.ids[m], certs[m].n, j)
				for o, k := range s.hist[m][p] {
					col[o] += k
				}
			}
		}
	}
	// Seeded answers must agree across the streams too.
	for k, out := range ss[0].seen {
		for _, s := range ss[1:] {
			if prev, ok := s.seen[k]; ok && !sameInts(prev, out) {
				rep.gate.failf("%s: seeded batch %d answered differently on two streams", in.ops[k].op.ID, k)
			}
		}
	}
	tested := hist.check(&rep.gate, certMap)

	first, last := slices[0], slices[len(slices)-1]
	wall := last.t.Sub(first.t).Seconds()
	ops := float64(last.ops - first.ops)
	if ops <= 0 {
		return nil, fmt.Errorf("no ops completed in the measured window")
	}
	opsIn := func(i int) int64 { return slices[i].ops - slices[i-1].ops }
	rawRate, rawCPU, rss := sliceMedians(slices, opsIn, nil, nil)
	rate, cpuPerOp, _ := sliceMedians(slices, opsIn, unst, speed)
	ls := summarize(lat)
	rep.metrics["ops_per_s"] = rate
	rep.metrics["lat_p50_ms"] = ls.P50
	rep.metrics["server_cpu_us_per_op"] = cpuPerOp
	rep.metrics["rss_mb"] = rss
	// The traced replay's layer times are raw, so the remainder is taken
	// against the raw figure.
	rep.ref = e2eRef{serverCPUusPerOp: rawCPU}
	rep.steal = stealShare(slices)
	e.printf("query-stream load: %d binary streams, %d ops in flight each, sent %d at a time, closed loop, %.1f s measured after %.1f s warm-up; host steal %.1f%%",
		nstreams, streamWindow, sendGroup, wall, warmup.Seconds(), 100*stealShare(slices))
	e.printf("query-stream samples_per_s = %.6g 1/s (window mean)", float64(samples1-samples0)/wall)
	printSpeed(e, "query-stream", speed, len(kernelRuns))
	e.printf("query-stream ops_per_s = %.6g 1/s (median of one-second slices, per unstolen second at reference speed; as measured: median %.6g, window mean %.6g)", rate, rawRate, ops/wall)
	e.printf("query-stream server_cpu_us_per_op = %.6g us (median of slices at reference speed; as measured: median %.6g, window mean %.6g)", cpuPerOp, rawCPU, (last.cpu-first.cpu)*1e6/ops)
	e.printf("query-stream rss_mb = %.6g MB (median resident set in the window; peak %.6g)", rss, peak)
	printLatency(e, "query-stream", ls)
	e.printf("query-stream lat_p50_ms as measured = %.6g ms (the figure above is in unstolen time at reference speed)", summarize(rawLat).P50)
	e.printf("query-stream checks: %d artifacts certified, %d columns chi-square tested, %d seeded ops repeated identically",
		len(certMap), tested, len(ss[0].seen))
	return rep, nil
}

// printLatency prints a latency summary with its sample count and the
// highest tail percentile the sample supports.
func printLatency(e *env, workload string, ls latencySummary) {
	e.printf("%s lat_p50_ms = %.6g ms (n=%d)", workload, ls.P50, ls.N)
	if !math.IsNaN(ls.P99) {
		e.printf("%s lat_p99_ms = %.6g ms (n=%d, %d beyond)", workload, ls.P99, ls.N, beyond(ls.N, 0.99))
	} else {
		e.printf("%s lat_p99_ms: not reported, %d samples leave fewer than %d beyond p99", workload, ls.N, tailBeyond)
	}
	if ls.TailQ != 0 && ls.TailQ != 0.99 {
		e.printf("%s lat_p%g_ms = %.6g ms (highest supported percentile)", workload, 100*ls.TailQ, ls.Tail)
	}
}
