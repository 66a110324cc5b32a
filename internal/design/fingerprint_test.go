package design

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// hashModel writes everything a solve reads from a design LP into h:
// sense, per-variable objective and box, every row's operator,
// right-hand side and terms in order, and the solver options. Names are
// left out: they carry no part of the problem.
func hashModel(h hash.Hash, m *lp.Model, opts lp.Options) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(m.Sense()))
	put(uint64(m.NumVariables()))
	for v := 0; v < m.NumVariables(); v++ {
		lo, hi := m.Bounds(v)
		putF(m.ObjectiveCoeff(v))
		putF(lo)
		putF(hi)
	}
	put(uint64(m.NumConstraints()))
	for i := 0; i < m.NumConstraints(); i++ {
		c := m.Constraint(i)
		put(uint64(c.Op))
		putF(c.RHS)
		put(uint64(len(c.Terms)))
		for _, t := range c.Terms {
			put(uint64(t.Var))
			putF(t.Coeff)
		}
	}
	put(uint64(opts.Method))
	put(uint64(opts.MaxIterations))
	putF(opts.Tol)
	if opts.NoPresolve {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(opts.CrashRows)))
	for _, r := range opts.CrashRows {
		put(uint64(r))
	}
}

// matrixHash hashes a mechanism's probabilities bit for bit.
func matrixHash(m *core.Mechanism) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i <= m.N(); i++ {
		for j := 0; j <= m.N(); j++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Prob(i, j)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestDesignModelFingerprint pins, bit for bit, every LP the design
// layer poses and every mechanism it returns over a fixed problem set:
// full and symmetry-folded designs under every property row family,
// non-uniform weights and p ≠ 0 objectives, the band path, minimax, the
// step-loss (L0D) designs, and Choose's WH-LP and WM branches. A
// refactor of model assembly that keeps these hashes poses the same
// variables, rows, terms, right-hand sides, bounds, objective and
// solver options in the same order, so it cannot change a served
// matrix. A change that means to pose a different LP updates the
// table. The hashes are pinned on amd64, where Go never fuses a
// multiply-add; other architectures may round the band path's scaled
// coefficients differently.
func TestDesignModelFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned on amd64")
	}
	var (
		h hash.Hash
		n int // LPs posed by the current case
	)
	orig := solveModel
	solveModel = func(m *lp.Model, ctx context.Context, opts lp.Options) (*lp.Solution, error) {
		n++
		hashModel(h, m, opts)
		return orig(m, ctx, opts)
	}
	t.Cleanup(func() { solveModel = orig })
	ClearCache()
	t.Cleanup(ClearCache)

	weights := []float64{0.05, 0.2, 0.1, 0.15, 0.05, 0.1, 0.2, 0.1, 0.05}
	solve := func(p Problem) func() (*core.Mechanism, error) {
		return func() (*core.Mechanism, error) {
			r, err := Solve(p)
			if err != nil {
				return nil, err
			}
			return r.Mechanism, nil
		}
	}
	minimax := func(p Problem) func() (*core.Mechanism, error) {
		return func() (*core.Mechanism, error) {
			r, err := SolveMinimax(p)
			if err != nil {
				return nil, err
			}
			return r.Mechanism, nil
		}
	}
	choose := func(n int, alpha float64, props core.PropertySet) func() (*core.Mechanism, error) {
		return func() (*core.Mechanism, error) {
			c, err := Choose(n, alpha, props)
			if err != nil {
				return nil, err
			}
			return c.Mechanism, nil
		}
	}
	const (
		RH, RM, CH, CM = core.RowHonesty, core.RowMonotone, core.ColumnHonesty, core.ColumnMonotone
		WH, F, S, ODP  = core.WeakHonesty, core.Fairness, core.Symmetry, core.OutputDP
	)
	cases := []struct {
		name          string
		run           func() (*core.Mechanism, error)
		model, matrix string
	}{
		{"full/basic", solve(Problem{N: 10, Alpha: 0.8}), "97a96ded2d507f34", "2529a3d5fc0aba6a"},
		{"full/RH+CH+F+S+ODP", solve(Problem{N: 8, Alpha: 0.7, Props: RH | CH | F | S | ODP}), "feb73ece2c77678c", "fd1515a1d86ff5d6"},
		{"full/RM+CM+WH:p=1", solve(Problem{N: 9, Alpha: 0.6, Props: RM | CM | WH, Objective: Objective{P: 1}}), "6b89ae7cfa1b7ccf", "f748fb0cb69b4fac"},
		{"full/WH+RH:weighted", solve(Problem{N: 8, Alpha: 0.75, Props: WH | RH, Objective: Objective{Weights: weights}}), "8cce06b4dc0eeb72", "98d6405d1fef341e"},
		{"folded/RM+CM+S", solve(Problem{N: 12, Alpha: 0.9, Props: RM | CM | S, ReduceSymmetry: true}), "2ab54008ed96ded1", "b906f790eec01af1"},
		{"folded/WH+RH+ODP+S:p=2", solve(Problem{N: 11, Alpha: 0.7, Props: WH | RH | ODP | S, Objective: Objective{P: 2}, ReduceSymmetry: true}), "4173bea5c66c0359", "883856b0cdb77dcf"},
		{"folded/CH+F+S", solve(Problem{N: 10, Alpha: 0.8, Props: CH | F | S, ReduceSymmetry: true}), "975db5ef0d0281a5", "f5b4fd9865f7db64"},
		{"band/RM+CM+S", solve(Problem{N: 256, Alpha: 0.75, Props: RM | CM | S, ReduceSymmetry: true}), "7a264ce945f83e39", "3c489641fa538692"},
		{"minimax/basic", minimax(Problem{N: 8, Alpha: 0.7}), "0d2b06f8ca6254a2", "3ed64c7d31bd9ba4"},
		{"minimax/WH+S:p=1", minimax(Problem{N: 9, Alpha: 0.6, Props: WH | S, Objective: Objective{P: 1}, ReduceSymmetry: true}), "c7d95719902baed2", "64667df269223a0a"},
		{"l0d/unconstrained", func() (*core.Mechanism, error) { return UnconstrainedL0D(8, 0.7, 1) }, "892b8ea5e30e55df", "aa77b7646f476aab"},
		{"l0d/RM+S", func() (*core.Mechanism, error) { return ConstrainedL0D(9, 0.6, 2, RM|S) }, "6dc97ecd2db34007", "ca51346669caa935"},
		{"choose/WH-LP", choose(4, 0.9, WH), "613a431a52e88dc4", "f9dc00e0b71b0209"},
		{"choose/WH-LP+RM", choose(5, 0.9, WH|RM), "7d1532c800ba8457", "f61a5244e7500270"},
		{"choose/WM", choose(6, 0.8, CM), "3683958411bd8bb9", "fa8030c51f4e5165"},
	}
	for _, c := range cases {
		h, n = sha256.New(), 0
		m, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		model, matrix := hex.EncodeToString(h.Sum(nil)[:8]), matrixHash(m)
		t.Logf("%-24s models=%d model=%s matrix=%s", c.name, n, model, matrix)
		// Each problem here is one LP; the band case clears at its first
		// depth.
		if n != 1 || model != c.model || matrix != c.matrix {
			t.Errorf("%s: posed %d models hashing %s with matrix %s; want 1, %s, %s",
				c.name, n, model, matrix, c.model, c.matrix)
		}
	}
}
