package mat

import (
	"context"
	"fmt"
	"math"
)

// This file implements a sparse LU factorization in the style of
// Gilbert–Peierls: a left-looking column factorization with partial
// pivoting whose work is proportional to the number of floating-point
// operations actually performed, not to the dimension squared. It exists
// for the revised simplex in internal/lp, whose basis matrices are large
// (tens of thousands of rows for the bigger mechanism-design LPs) but
// extremely sparse — mostly slack singletons plus short structural
// columns — so a dense factorization would be both too slow and too big.
//
// The factorization computes P·A·Q = L·U where P is a row permutation
// chosen by partial pivoting and Q is a column permutation chosen up
// front (columns ordered by increasing nonzero count, which puts the
// slack singletons first and keeps fill-in negligible on simplex bases).

// SparseLU is a sparse LU factorization of a square matrix, produced by
// FactorSparse or written in place by Refactor. It provides dense and
// sparse solves with A and Aᵀ. A SparseLU is not safe for concurrent use:
// the solves share internal scratch space.
//
// Refactor reuses the receiver's storage: L and U are rebuilt within
// their existing capacity, and the permutations, the elimination and
// sparse-solve workspaces and the transpose mirrors are kept, so a
// same-order refactorization allocates nothing once capacity suffices.
// A change of order reallocates everything.
type SparseLU struct {
	n int

	// L and U in compressed sparse column form, with row indices in
	// pivot-position space. L has a unit diagonal stored explicitly as the
	// first entry of each column; U stores its diagonal as the last entry
	// of each column.
	lp, li []int32
	lx     []float64
	up, ui []int32
	ux     []float64

	// pinv maps an original row index to its pivot position; rperm is the
	// inverse (pivot position -> original row).
	pinv, rperm []int
	// cperm maps a factorization column position to the caller's column
	// index; cinv is the inverse.
	cperm, cinv []int

	// scratch is the dense solves' work vector and the elimination's dense
	// accumulator; each writes an entry before reading it.
	scratch []float64
	// bucket holds the counting sort's bucket starts for the column
	// pre-ordering, one per nonzero count.
	bucket []int32

	// CSR mirrors of the strictly triangular parts, built lazily after a
	// factorization (transposed reports whether they are current): row r
	// of L (column r of Lᵀ) and row r of U (column r of Uᵀ). They exist so
	// the sparse transpose solves can walk dependency edges forward
	// without a per-call transposition.
	transposed bool
	ltp, lti   []int32
	ltx        []float64
	utp, uti   []int32
	utx        []float64
	udiag      []float64

	// DFS workspaces shared by the elimination's symbolic step and the
	// sparse solves: the topological pattern (filled from the top down;
	// the elimination also runs its DFS stack up from the bottom), the
	// per-node edge cursors, and visit stamps, which only ever advance so
	// no mark survives into a later search.
	topo   []int32
	pstack []int32
	marked []int32
	stamp  int32

	// Sparse-solve workspaces, allocated on the first sparse solve: a
	// second dense accumulator (kept all-zero between calls), the DFS
	// stack, and pattern buffers.
	sx      []float64
	dstack  []int32
	seedbuf []int32
	outpat  []int32
}

// FactorSparse factorizes the n×n sparse matrix whose k-th column is
// returned by col (row indices and values of the nonzeros; indices need
// not be sorted but must be unique and in [0, n)). It returns
// ErrSingular (wrapped) when elimination finds no usable pivot. It is
// Refactor on a new SparseLU.
func FactorSparse(n int, col func(k int) (rows []int32, vals []float64)) (*SparseLU, error) {
	return FactorSparseCtx(nil, n, col)
}

// factorCheckEvery is how many elimination columns pass between context
// checks in Refactor: frequent enough that cancelling a serving-scale
// factorization (tens of thousands of columns) aborts in a few
// milliseconds of remaining work, rare enough to stay invisible in
// profiles.
const factorCheckEvery = 256

// FactorSparseCtx is FactorSparse with cooperative cancellation: when
// ctx is cancelled mid-elimination the partial factorization is
// abandoned and the context's cause is returned (satisfying
// errors.Is(err, context.Canceled) / DeadlineExceeded). A nil ctx means
// no cancellation, exactly as FactorSparse.
func FactorSparseCtx(ctx context.Context, n int, col func(k int) (rows []int32, vals []float64)) (*SparseLU, error) {
	f := new(SparseLU)
	if err := f.Refactor(ctx, n, col); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor factorizes the n×n matrix given by col, as FactorSparseCtx
// does, into the receiver's storage. The result is bit-identical to a
// fresh FactorSparseCtx of the same matrix. On error (ErrShape,
// ErrSingular, or the context's cause) the receiver holds no
// factorization — its solves panic — until a later Refactor succeeds.
func (f *SparseLU) Refactor(ctx context.Context, n int, col func(k int) (rows []int32, vals []float64)) error {
	f.lp, f.up = f.lp[:0], f.up[:0]
	f.transposed = false
	if n <= 0 {
		return fmt.Errorf("mat: FactorSparse(%d): %w", n, ErrShape)
	}
	if n != f.n {
		*f = SparseLU{
			n:       n,
			pinv:    make([]int, n),
			rperm:   make([]int, n),
			cperm:   make([]int, n),
			cinv:    make([]int, n),
			scratch: make([]float64, n),
			topo:    make([]int32, n),
			pstack:  make([]int32, n),
			marked:  make([]int32, n),
		}
	}
	f.orderColumns(col)
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	return f.eliminate(ctx, col)
}

// orderColumns sets the column pre-ordering: increasing nonzero count,
// ties in column order. On simplex bases this floats the slack/identity
// singletons to the front where they pivot without any fill. It is a
// stable counting sort, with cinv holding each column's count until the
// final pass overwrites it with the column's position.
func (f *SparseLU) orderColumns(col func(k int) (rows []int32, vals []float64)) {
	maxCount := 0
	for k := 0; k < f.n; k++ {
		rows, _ := col(k)
		f.cinv[k] = len(rows)
		maxCount = max(maxCount, len(rows))
	}
	f.bucket = resize(f.bucket, maxCount+1)
	clear(f.bucket)
	for _, c := range f.cinv {
		f.bucket[c]++
	}
	start := int32(0)
	for c, cnt := range f.bucket {
		f.bucket[c] = start
		start += cnt
	}
	for k, c := range f.cinv {
		pos := f.bucket[c]
		f.bucket[c]++
		f.cperm[pos] = k
		f.cinv[k] = int(pos)
	}
}

// eliminate runs the left-looking elimination sweep over the ordered
// columns, appending L and U into the receiver's storage.
func (f *SparseLU) eliminate(ctx context.Context, col func(k int) (rows []int32, vals []float64)) error {
	n := f.n
	x, xi, pinv := f.scratch, f.topo, f.pinv
	lp, li, lx := append(f.lp, 0), f.li[:0], f.lx[:0]
	up, ui, ux := append(f.up, 0), f.ui[:0], f.ux[:0]

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var err error
	for kpos := 0; kpos < n; kpos++ {
		if done != nil && kpos%factorCheckEvery == 0 {
			select {
			case <-done:
				err = fmt.Errorf("mat: FactorSparse abandoned at column %d of %d: %w",
					kpos, n, context.Cause(ctx))
			default:
			}
			if err != nil {
				break
			}
		}
		rows, vals := col(f.cperm[kpos])

		// Symbolic step: depth-first search from the column's nonzero rows
		// through the graph of L to find the nonzero pattern of
		// x = L⁻¹·a_k in topological order (xi[top:n]).
		stamp := f.nextStamp()
		top := n
		for _, r := range rows {
			if f.marked[r] == stamp {
				continue
			}
			top = f.reachDFS(r, stamp, lp, li, top)
		}

		// Numeric step: scatter the column and eliminate in topological
		// order using the finished columns of L.
		for _, i := range xi[top:] {
			x[i] = 0
		}
		for i, r := range rows {
			x[r] = vals[i]
		}
		for _, i := range xi[top:] {
			jpiv := pinv[i]
			if jpiv < 0 {
				continue
			}
			xj := x[i]
			if xj == 0 {
				continue
			}
			for q := lp[jpiv] + 1; q < lp[jpiv+1]; q++ {
				x[li[q]] -= lx[q] * xj
			}
		}

		// Partial pivoting: the largest-magnitude entry among rows not yet
		// pivoted. Entries in already-pivoted rows belong to U.
		ipiv, pivMag := int32(-1), 0.0
		for _, i := range xi[top:] {
			if pinv[i] < 0 {
				if a := math.Abs(x[i]); a > pivMag {
					pivMag, ipiv = a, i
				}
			}
		}
		if ipiv < 0 || pivMag < 1e-13 {
			err = fmt.Errorf("mat: FactorSparse: column %d (pivot %g): %w", f.cperm[kpos], pivMag, ErrSingular)
			break
		}
		pinv[ipiv] = kpos
		f.rperm[kpos] = int(ipiv)
		pivVal := x[ipiv]

		// Emit U column kpos (rows above the diagonal, in pivot space),
		// diagonal last; then L column kpos (unit diagonal first, then the
		// scaled subdiagonal entries, still carrying original row indices —
		// they are remapped to pivot space once the sweep finishes).
		for _, i := range xi[top:] {
			if jp := pinv[i]; jp >= 0 && jp < kpos {
				if x[i] != 0 {
					ui = append(ui, int32(jp))
					ux = append(ux, x[i])
				}
			}
		}
		ui = append(ui, int32(kpos))
		ux = append(ux, pivVal)
		up = append(up, int32(len(ui)))

		li = append(li, ipiv) // diagonal, value 1
		lx = append(lx, 1)
		for _, i := range xi[top:] {
			if pinv[i] < 0 && x[i] != 0 {
				li = append(li, i)
				lx = append(lx, x[i]/pivVal)
			}
		}
		lp = append(lp, int32(len(li)))
	}
	f.li, f.lx, f.ui, f.ux = li, lx, ui, ux
	if err != nil {
		f.lp, f.up = lp[:0], up[:0]
		return err
	}

	// Remap L's row indices from original to pivot-position space so the
	// triangular solves can run without indirection.
	for p, i := range li {
		li[p] = int32(pinv[i])
	}
	f.lp, f.up = lp, up
	return nil
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ensureSparseKernels lazily builds the CSR transpose mirrors and the
// sparse-solve workspaces on the first FtranSparse/BtranSparse call
// after a factorization, so callers that only ever use the dense solves
// (the unbounded oracle path) pay neither the O(nnz) transposition nor
// the doubled factor memory.
func (f *SparseLU) ensureSparseKernels() {
	if f.transposed {
		return
	}
	if f.sx == nil {
		f.sx = make([]float64, f.n)
		f.dstack = make([]int32, f.n)
		f.seedbuf = make([]int32, 0, f.n)
		f.outpat = make([]int32, 0, f.n)
	}
	f.buildTranspose()
	f.transposed = true
}

// buildTranspose fills the CSR mirrors of the strictly triangular parts
// of L and U plus the U diagonal, within their existing capacity.
func (f *SparseLU) buildTranspose() {
	n := f.n
	f.udiag = resize(f.udiag, n)
	f.ltp = resize(f.ltp, n+1)
	f.utp = resize(f.utp, n+1)
	clear(f.ltp)
	clear(f.utp)
	// Count each row's entries into the pointer slot after it, then
	// prefix-sum so ltp[i]/utp[i] is row i's start.
	for j := 0; j < n; j++ {
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			f.ltp[f.li[p]+1]++
		}
		last := f.up[j+1] - 1
		f.udiag[j] = f.ux[last]
		for p := f.up[j]; p < last; p++ {
			f.utp[f.ui[p]+1]++
		}
	}
	for i := 0; i < n; i++ {
		f.ltp[i+1] += f.ltp[i]
		f.utp[i+1] += f.utp[i]
	}
	f.lti = resize(f.lti, int(f.ltp[n]))
	f.ltx = resize(f.ltx, int(f.ltp[n]))
	f.uti = resize(f.uti, int(f.utp[n]))
	f.utx = resize(f.utx, int(f.utp[n]))
	// Scatter column by column, using each row's start as its fill
	// cursor; afterwards ltp[i] holds row i's end, so shift the pointers
	// back by one row.
	for j := 0; j < n; j++ {
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			i := f.li[p]
			q := f.ltp[i]
			f.lti[q] = int32(j)
			f.ltx[q] = f.lx[p]
			f.ltp[i] = q + 1
		}
		last := f.up[j+1] - 1
		for p := f.up[j]; p < last; p++ {
			i := f.ui[p]
			q := f.utp[i]
			f.uti[q] = int32(j)
			f.utx[q] = f.ux[p]
			f.utp[i] = q + 1
		}
	}
	copy(f.ltp[1:], f.ltp[:n])
	copy(f.utp[1:], f.utp[:n])
	f.ltp[0], f.utp[0] = 0, 0
}

// reachDFS walks the graph of L (given as the sweep's lp/li so far) from
// original row r, pushing newly finished nodes onto f.topo from position
// top downward, and returns the new top. The DFS stack runs up from the
// bottom of the same array: a node is on the stack or finished, never
// both, so the two never meet. Nodes are original row indices; a pivoted
// row i continues into the subdiagonal pattern of L's column pinv[i].
func (f *SparseLU) reachDFS(r, stamp int32, lp, li []int32, top int) int {
	xi, pstack, marked, pinv := f.topo, f.pstack, f.marked, f.pinv
	head := 0
	xi[0] = r
	for head >= 0 {
		i := xi[head]
		jpiv := pinv[i]
		if marked[i] != stamp {
			marked[i] = stamp
			if jpiv < 0 {
				pstack[head] = 0 // unpivoted: terminal
			} else {
				pstack[head] = lp[jpiv] + 1 // skip unit diagonal
			}
		}
		done := true
		if jpiv >= 0 {
			for p := pstack[head]; p < lp[jpiv+1]; p++ {
				child := li[p]
				if marked[child] != stamp {
					pstack[head] = p + 1
					head++
					xi[head] = child
					done = false
					break
				}
			}
		}
		if done {
			head--
			top--
			xi[top] = i
		}
	}
	return top
}

// Triangle selects one of the four triangular dependency graphs a sparse
// solve walks: L and U as stored (CSC), or their CSR mirrors (the
// transpose solves).
type triangle int8

const (
	triL  triangle = iota // CSC L, unit diagonal stored first
	triU                  // CSC U, diagonal stored last
	triUT                 // CSR U (strictly upper), diagonal in udiag
	triLT                 // CSR L (strictly lower), unit diagonal implicit
)

// triView is one triangle resolved for a solve: node j's edges — the
// nodes whose values a finished x[j] updates — are idx[ptr[j]+lo :
// ptr[j+1]-hi] with matching val, where lo and hi trim a diagonal stored
// at the column's start or end. divide marks the U triangles, whose
// solves divide by udiag.
type triView struct {
	ptr, idx []int32
	val      []float64
	lo, hi   int32
	divide   bool
}

// view resolves triangle tr against the current factors.
func (f *SparseLU) view(tr triangle) triView {
	switch tr {
	case triL:
		return triView{ptr: f.lp, idx: f.li, val: f.lx, lo: 1}
	case triU:
		return triView{ptr: f.up, idx: f.ui, val: f.ux, hi: 1, divide: true}
	case triUT:
		return triView{ptr: f.utp, idx: f.uti, val: f.utx, divide: true}
	default:
		return triView{ptr: f.ltp, idx: f.lti, val: f.ltx}
	}
}

// nextStamp advances the DFS visit stamp, clearing the mark array on the
// (effectively unreachable) wraparound.
func (f *SparseLU) nextStamp() int32 {
	f.stamp++
	if f.stamp == math.MaxInt32 {
		clear(f.marked)
		f.stamp = 1
	}
	return f.stamp
}

// triReach computes the set of nodes reachable from seed through the
// triangle's dependency edges — the nonzero pattern of the triangular
// solve — in topological order, stored in f.topo[top:n]. It returns top.
func (f *SparseLU) triReach(t *triView, seed []int32) int {
	stamp := f.nextStamp()
	ptr, idx, lo, hi := t.ptr, t.idx, t.lo, t.hi
	dstack, pstack, topo, marked := f.dstack, f.pstack, f.topo, f.marked
	top := f.n
	for _, r := range seed {
		if marked[r] == stamp {
			continue
		}
		// Iterative DFS: a node is pushed to topo once all its children are
		// done, so topo[top:n] lists every node before its dependents.
		head := 0
		dstack[0] = r
		for head >= 0 {
			j := dstack[head]
			if marked[j] != stamp {
				marked[j] = stamp
				pstack[head] = ptr[j] + lo
			}
			descended := false
			for p, end := pstack[head], ptr[j+1]-hi; p < end; p++ {
				child := idx[p]
				if marked[child] != stamp {
					pstack[head] = p + 1
					head++
					dstack[head] = child
					descended = true
					break
				}
			}
			if !descended {
				head--
				top--
				topo[top] = j
			}
		}
	}
	return top
}

// triSolveSparse runs the column-oriented triangular solve over the
// topologically ordered pattern f.topo[top:n] against the dense-scattered
// accumulator x (indexed in pivot space). Divide-by-diagonal happens for
// the U-involving triangles before the scatter.
func (f *SparseLU) triSolveSparse(t *triView, top int, x []float64) {
	ptr, idx, val, lo, hi := t.ptr, t.idx, t.val, t.lo, t.hi
	for _, j := range f.topo[top:f.n] {
		xj := x[j]
		if t.divide {
			xj /= f.udiag[j]
			x[j] = xj
		}
		if xj == 0 {
			continue
		}
		for q, end := ptr[j]+lo, ptr[j+1]-hi; q < end; q++ {
			x[idx[q]] -= val[q] * xj
		}
	}
}

// sparsityCut is the pattern-density fraction beyond which the sparse
// kernels stop paying for their DFS overhead and the solve goes dense.
const sparsityCut = 8

// FtranSparse overwrites the sparse vector held in (x, pat) — values
// scattered in the caller's dense accumulator x, nonzero indices in pat
// (caller row space, as for SolveVec) — with A⁻¹·x and returns the new
// pattern, whose indices are in caller column space. Entries of x outside
// pat must be zero. When the pattern grows past n/8 the solve finishes
// densely and returns nil: x then holds the full dense result (as after
// SolveVec) and the caller must treat it as dense. The returned slice is
// owned by the factorization and valid until the next sparse solve.
func (f *SparseLU) FtranSparse(x []float64, pat []int32) []int32 {
	n := f.n
	if len(pat)*sparsityCut > n {
		f.SolveVec(x)
		return nil
	}
	f.ensureSparseKernels()
	s := f.sx
	f.seedbuf = f.seedbuf[:0]
	for _, i := range pat {
		j := int32(f.pinv[i])
		s[j] = x[i]
		x[i] = 0
		f.seedbuf = append(f.seedbuf, j)
	}
	l := f.view(triL)
	top := f.triReach(&l, f.seedbuf)
	f.triSolveSparse(&l, top, s)
	if (n-top)*sparsityCut > n {
		// Pattern filled in: finish with the dense backward solve. s holds
		// y = L⁻¹Pb exactly (untouched entries are zero).
		for j := n - 1; j >= 0; j-- {
			last := f.up[j+1] - 1
			xj := s[j] / f.ux[last]
			s[j] = xj
			if xj == 0 {
				continue
			}
			for p := f.up[j]; p < last; p++ {
				s[f.ui[p]] -= f.ux[p] * xj
			}
		}
		for j := 0; j < n; j++ {
			x[f.cperm[j]] = s[j]
			s[j] = 0
		}
		return nil
	}
	// The L pattern seeds the U reach; copy it out before topo is reused.
	f.seedbuf = append(f.seedbuf[:0], f.topo[top:n]...)
	u := f.view(triU)
	top = f.triReach(&u, f.seedbuf)
	f.triSolveSparse(&u, top, s)
	f.outpat = f.outpat[:0]
	for p := top; p < n; p++ {
		j := f.topo[p]
		c := int32(f.cperm[j])
		x[c] = s[j]
		s[j] = 0
		f.outpat = append(f.outpat, c)
	}
	return f.outpat
}

// BtranSparse is the transpose counterpart of FtranSparse: it overwrites
// the sparse vector (x, pat) — indices in caller column space, as for
// SolveTransposeVec — with A⁻ᵀ·x and returns the new pattern in caller
// row space, or nil after a dense finish (x then holds the dense result).
func (f *SparseLU) BtranSparse(x []float64, pat []int32) []int32 {
	n := f.n
	if len(pat)*sparsityCut > n {
		f.SolveTransposeVec(x)
		return nil
	}
	f.ensureSparseKernels()
	s := f.sx
	f.seedbuf = f.seedbuf[:0]
	for _, c := range pat {
		j := int32(f.cinv[c])
		s[j] = x[c]
		x[c] = 0
		f.seedbuf = append(f.seedbuf, j)
	}
	ut := f.view(triUT)
	top := f.triReach(&ut, f.seedbuf)
	f.triSolveSparse(&ut, top, s)
	if (n-top)*sparsityCut > n {
		// Dense finish: s holds v = U⁻ᵀ(Q-permuted c) exactly; run the
		// dense backward Lᵀ solve and permute out.
		for j := n - 1; j >= 0; j-- {
			sj := s[j]
			for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
				sj -= f.lx[p] * s[f.li[p]]
			}
			s[j] = sj
		}
		for i := 0; i < n; i++ {
			x[i] = s[f.pinv[i]]
		}
		for j := 0; j < n; j++ {
			s[j] = 0
		}
		return nil
	}
	f.seedbuf = append(f.seedbuf[:0], f.topo[top:n]...)
	lt := f.view(triLT)
	top = f.triReach(&lt, f.seedbuf)
	f.triSolveSparse(&lt, top, s)
	f.outpat = f.outpat[:0]
	for p := top; p < n; p++ {
		j := f.topo[p]
		r := int32(f.rperm[j])
		x[r] = s[j]
		s[j] = 0
		f.outpat = append(f.outpat, r)
	}
	return f.outpat
}

// NNZ returns the number of stored nonzeros in L and U combined.
func (f *SparseLU) NNZ() int { return len(f.lx) + len(f.ux) }

// Order returns the dimension of the factorized matrix.
func (f *SparseLU) Order() int { return f.n }

// SolveVec overwrites b with A⁻¹·b. Zero entries are skipped, so solves
// with sparse right-hand sides cost only their reachable set plus one
// O(n) permutation pass.
func (f *SparseLU) SolveVec(b []float64) {
	n := f.n
	x := f.scratch
	// x = P·b (row permutation).
	for i := 0; i < n; i++ {
		x[f.pinv[i]] = b[i]
	}
	// L·y = x, forward.
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			x[f.li[p]] -= f.lx[p] * xj
		}
	}
	// U·z = y, backward (diagonal stored last in each column).
	for j := n - 1; j >= 0; j-- {
		last := f.up[j+1] - 1
		xj := x[j] / f.ux[last]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for p := f.up[j]; p < last; p++ {
			x[f.ui[p]] -= f.ux[p] * xj
		}
	}
	// Undo the column permutation: solution component for caller column
	// cperm[j] is z[j].
	for j := 0; j < n; j++ {
		b[f.cperm[j]] = x[j]
	}
}

// SolveTransposeVec overwrites c with A⁻ᵀ·c. Like SolveVec it skips
// zero entries where possible.
func (f *SparseLU) SolveTransposeVec(c []float64) {
	n := f.n
	x := f.scratch
	// Apply the column permutation: (A·Q)ᵀ has its rows permuted by Q.
	for j := 0; j < n; j++ {
		x[j] = c[f.cperm[j]]
	}
	// Uᵀ·v = x, forward.
	for j := 0; j < n; j++ {
		last := f.up[j+1] - 1
		s := x[j]
		for p := f.up[j]; p < last; p++ {
			s -= f.ux[p] * x[f.ui[p]]
		}
		x[j] = s / f.ux[last]
	}
	// Lᵀ·w = v, backward.
	for j := n - 1; j >= 0; j-- {
		s := x[j]
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			s -= f.lx[p] * x[f.li[p]]
		}
		x[j] = s
	}
	// c = Pᵀ·w.
	for i := 0; i < n; i++ {
		c[i] = x[f.pinv[i]]
	}
}
