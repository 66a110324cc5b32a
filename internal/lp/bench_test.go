package lp

import (
	"math/rand"
	"testing"
)

// Benchmarks for the LP engine. CI runs these with -benchtime 0.5s,
// publishes the results as BENCH_lp.json, and fails on >30% regression
// against the committed baseline (.github/bench/BENCH_lp.json) — so the
// set deliberately covers the bounded engine, the dense test oracle and
// the dual route at sizes that finish quickly but still exercise the
// sparse machinery.

// benchDesignModel builds the design-shaped LP from the cross-validation
// suite at a richer size: BASICDP ratio rows, column sums, WH floors.
func benchDesignModel(n int, alpha float64) *Model {
	m := NewModel("bench-design", Minimize)
	vars := make([][]int, n+1)
	for i := range vars {
		vars[i] = make([]int, n+1)
		for j := range vars[i] {
			vars[i][j] = m.AddVariable("")
			if i != j {
				m.SetObjective(vars[i][j], 1/float64(n+1))
			}
		}
	}
	for j := 0; j <= n; j++ {
		terms := make([]Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, Term{vars[i][j], 1})
		}
		m.AddConstraint("", terms, EQ, 1)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			m.AddConstraint("", []Term{{vars[i][j+1], alpha}, {vars[i][j], -1}}, LE, 0)
			m.AddConstraint("", []Term{{vars[i][j], alpha}, {vars[i][j+1], -1}}, LE, 0)
		}
		m.AddConstraint("", []Term{{vars[i][i], 1}}, GE, 1/float64(n+1))
	}
	return m
}

func benchSolve(b *testing.B, n int, method Method) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := benchDesignModel(n, 0.9)
		if _, err := m.solveBy(Options{Method: method}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseDesign8(b *testing.B)  { benchSolve(b, 8, MethodSparse) }
func BenchmarkSparseDesign16(b *testing.B) { benchSolve(b, 16, MethodSparse) }
func BenchmarkDenseDesign8(b *testing.B)   { benchSolve(b, 8, methodDense) }
func BenchmarkDenseDesign16(b *testing.B)  { benchSolve(b, 16, methodDense) }
func BenchmarkAutoDesign16(b *testing.B)   { benchSolve(b, 16, MethodAuto) }

// BenchmarkCanonicalize isolates the Model → CSC standard-form build.
func BenchmarkCanonicalize(b *testing.B) {
	m := benchDesignModel(24, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canonicalize(m)
	}
}

// BenchmarkRandomLEModels covers the general-position instances of the
// cross-validation suite end to end on the auto path.
func BenchmarkRandomLEModels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	models := make([]*Model, 16)
	for i := range models {
		models[i] = randomGeneralPositionLP(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := models[i%len(models)].Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
