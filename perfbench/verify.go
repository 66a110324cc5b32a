package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"privcount/client"
	"privcount/internal/core"
	"privcount/internal/service"
)

// tally counts one workload's operations: every op attempted, and every
// failure by its taxonomy code. A shed (503) or refused op is a failure
// and so also misses any latency limit.
type tally struct {
	attempted int64
	codes     map[string]int64
}

func (t *tally) fail(code string) {
	if t.codes == nil {
		t.codes = map[string]int64{}
	}
	t.codes[code]++
}

func (t *tally) failed() int64 {
	var n int64
	for _, c := range t.codes {
		n += c
	}
	return n
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	for c, n := range o.codes {
		for i := int64(0); i < n; i++ {
			t.fail(c)
		}
	}
}

// errCode names an error by the v2 taxonomy, or by where it arose when
// the server never answered.
func errCode(err error) string {
	var ce *client.Error
	switch {
	case errors.As(err, &ce):
		if ce.HTTPStatus == 503 {
			return string(ce.Code) + "/shed"
		}
		return string(ce.Code)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "transport_eof"
	default:
		return "transport"
	}
}

func printTally(w io.Writer, workload string, t *tally) {
	ratio := 0.0
	if t.attempted > 0 {
		ratio = float64(t.failed()) / float64(t.attempted)
	}
	fmt.Fprintf(w, "%s fail_ratio = %.6g 1 (%d of %d ops failed)\n", workload, ratio, t.failed(), t.attempted)
	for _, c := range sortedKeys(t.codes) {
		fmt.Fprintf(w, "%s   failed[%s] = %d\n", workload, c, t.codes[c])
	}
}

// gate collects correctness failures. Any failure fails the run.
type gate struct {
	mu       sync.Mutex
	failures []string // the first 20
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.failures) == 0
}

// certified is a served mechanism as its artifact describes it, after
// the benchmark's own certificate checks.
type certified struct {
	id   string
	n    int
	mech *core.Mechanism
	mle  []int
	sum  [sha256.Size]byte // of the artifact's bytes
}

// certify fetches the artifact of id, decodes and instantiates it, and
// checks that the matrix is column-stochastic, α-DP and has every
// property the artifact claims, all at core.DefaultTol.
func certify(ctx context.Context, c *client.Client, id string) (*certified, error) {
	spec, err := service.ParseSpec(id)
	if err != nil {
		return nil, err
	}
	data, err := c.ExportArtifact(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("fetching artifact of %s: %w", id, err)
	}
	return certifyBytes(id, data)
}

func certifyBytes(id string, data []byte) (*certified, error) {
	a, err := service.DecodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("decoding artifact of %s: %w", id, err)
	}
	if got := a.Spec.ID(); got != id {
		return nil, fmt.Errorf("artifact for %s names %s", id, got)
	}
	m, _, err := a.Instantiate()
	if err != nil {
		return nil, fmt.Errorf("instantiating %s: %w", id, err)
	}
	n := m.N()
	for j := 0; j <= n; j++ {
		var sum float64
		for i := 0; i <= n; i++ {
			p := m.Prob(i, j)
			if p < 0 || math.IsNaN(p) {
				return nil, fmt.Errorf("%s: P[%d|%d] = %g", id, i, j, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("%s: column %d sums to %.12g", id, j, sum)
		}
	}
	if v := m.DPViolation(a.Alpha, core.DefaultTol); v != "" {
		return nil, fmt.Errorf("%s: not %g-DP: %s", id, a.Alpha, v)
	}
	if v := m.Violation(a.Props, core.DefaultTol); v != "" {
		return nil, fmt.Errorf("%s: claims %s but %s", id, core.PropertySetString(a.Props), v)
	}
	if len(a.MLE) != n+1 {
		return nil, fmt.Errorf("%s: MLE table has %d entries, want %d", id, len(a.MLE), n+1)
	}
	return &certified{id: id, n: n, mech: m, mle: a.MLE, sum: sha256.Sum256(data)}, nil
}

// checkResult checks one op's answer against the certified mechanism:
// outputs in range and with non-zero probability under their input's
// column, estimate decodes equal to the MLE table. It returns a
// description of the first mismatch, or "".
func checkResult(cm *certified, op *client.Op, res *client.OpResult) string {
	inRange := func(j, o int) string {
		if o < 0 || o > cm.n {
			return fmt.Sprintf("%s: output %d out of [0, %d]", cm.id, o, cm.n)
		}
		if j >= 0 && cm.mech.Prob(o, j) == 0 {
			return fmt.Sprintf("%s: output %d has probability 0 for input %d", cm.id, o, j)
		}
		return ""
	}
	switch op.Op {
	case client.OpSample:
		if res.Output == nil {
			return fmt.Sprintf("%s: sample result has no output", cm.id)
		}
		return inRange(op.Count, *res.Output)
	case client.OpBatch:
		if len(res.Outputs) != len(op.Counts) {
			return fmt.Sprintf("%s: batch of %d answered with %d outputs", cm.id, len(op.Counts), len(res.Outputs))
		}
		for i, o := range res.Outputs {
			if s := inRange(op.Counts[i], o); s != "" {
				return s
			}
		}
	case client.OpEstimate:
		if len(res.MLE) != len(op.Outputs) || res.Sum == nil {
			return fmt.Sprintf("%s: estimate of %d outputs answered with %d decodes", cm.id, len(op.Outputs), len(res.MLE))
		}
		for i, o := range op.Outputs {
			if res.MLE[i] != cm.mle[o] {
				return fmt.Sprintf("%s: MLE(%d) = %d, artifact table says %d", cm.id, o, res.MLE[i], cm.mle[o])
			}
		}
	}
	return ""
}

// histograms accumulates unseeded draws per (mechanism, input) for the
// chi-square check against the certified column.
type histograms struct {
	h map[string]map[int][]int64
}

func newHistograms() *histograms { return &histograms{h: map[string]map[int][]int64{}} }

// column returns the draw counts for input j of mechanism id (n+1
// outputs), creating it on first use.
func (hs *histograms) column(id string, n, j int) []int64 {
	m := hs.h[id]
	if m == nil {
		m = map[int][]int64{}
		hs.h[id] = m
	}
	c := m[j]
	if c == nil {
		c = make([]int64, n+1)
		m[j] = c
	}
	return c
}

func (hs *histograms) merge(o *histograms) {
	for id, m := range o.h {
		for j, c := range m {
			dst := hs.column(id, len(c)-1, j)
			for out, k := range c {
				dst[out] += k
			}
		}
	}
}

// chiSquarePMin is the p-value below which a column's draws fail. It is
// small because a run makes dozens of tests over millions of draws, and
// a false alarm fails the run.
const chiSquarePMin = 1e-6

// check runs the chi-square test of every accumulated column and
// returns the number of columns tested.
func (hs *histograms) check(g *gate, certs map[string]*certified) int {
	tested := 0
	ids := sortedKeys(hs.h)
	for _, id := range ids {
		cm := certs[id]
		if cm == nil {
			g.failf("%s: draws observed but mechanism never certified", id)
			continue
		}
		js := make([]int, 0, len(hs.h[id]))
		for j := range hs.h[id] {
			js = append(js, j)
		}
		sort.Ints(js)
		for _, j := range js {
			p, df := chiSquareP(hs.h[id][j], cm.mech.Column(j))
			if df == 0 {
				continue
			}
			tested++
			if p < chiSquarePMin {
				g.failf("%s: draws for input %d fail chi-square against the artifact column (p=%.3g, df=%d)", id, j, p, df)
			}
		}
	}
	return tested
}

// certifyAll certifies each id from c, recording failures on g.
func certifyAll(ctx context.Context, c *client.Client, ids []string, g *gate) map[string]*certified {
	out := make(map[string]*certified, len(ids))
	for _, id := range ids {
		cm, err := certify(ctx, c, id)
		if err != nil {
			g.failf("certificate: %v", err)
			continue
		}
		out[id] = cm
	}
	return out
}

// sameInts reports whether two answers are identical.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
