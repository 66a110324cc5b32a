package privcount

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per table and figure of the paper, each regenerating the artefact's
// data series through internal/figures, plus micro-benchmarks for the
// performance-critical kernels (mechanism construction, sampling, and LP
// solving).
//
// By default figures are built with trimmed sweeps (the Quick option) so
// `go test -bench=. -benchmem` completes in minutes while preserving
// every curve's shape. Set PRIVCOUNT_FULL=1 to run the paper's full
// parameter grids, as used to produce EXPERIMENTS.md:
//
//	PRIVCOUNT_FULL=1 go test -bench=BenchmarkFigure9 -benchtime=1x

import (
	"os"
	"testing"

	"privcount/internal/core"
	"privcount/internal/dataset"
	"privcount/internal/design"
	"privcount/internal/figures"
	"privcount/internal/rng"
)

func figureOptions() figures.Options {
	return figures.Options{Quick: os.Getenv("PRIVCOUNT_FULL") == "", Seed: 1}
}

// benchFigure rebuilds one figure per iteration and fails the benchmark
// on any reproduction error.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	opts := figureOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Build(id, opts); err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
	}
}

// --- Paper figures and tables -------------------------------------------

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, "fig1") }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFigure8a(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFigure8b(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "fig13") }

// --- Worked examples and analytical results ------------------------------

func BenchmarkExample1(b *testing.B)       { benchFigure(b, "ex1") }
func BenchmarkTheorem1(b *testing.B)       { benchFigure(b, "thm1") }
func BenchmarkTheorem3(b *testing.B)       { benchFigure(b, "thm3") }
func BenchmarkTheorem4(b *testing.B)       { benchFigure(b, "thm4") }
func BenchmarkLemmas23(b *testing.B)       { benchFigure(b, "lem23") }
func BenchmarkLemma4(b *testing.B)         { benchFigure(b, "lem4") }
func BenchmarkSubsetCollapse(b *testing.B) { benchFigure(b, "subsets") }
func BenchmarkGSTest(b *testing.B)         { benchFigure(b, "gs") }

// --- Extensions / ablations ----------------------------------------------

func BenchmarkAblationOutputDP(b *testing.B) { benchFigure(b, "odp") }
func BenchmarkAblationL1L2(b *testing.B)     { benchFigure(b, "l1l2") }
func BenchmarkOffTheShelf(b *testing.B)      { benchFigure(b, "offtheshelf") }
func BenchmarkEstimators(b *testing.B)       { benchFigure(b, "estimators") }
func BenchmarkMinimax(b *testing.B)          { benchFigure(b, "minimax") }
func BenchmarkComposition(b *testing.B)      { benchFigure(b, "composition") }

// --- Micro-benchmarks on the kernels --------------------------------------

func BenchmarkGeometricConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Geometric(16, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplicitFairConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExplicitFair(16, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplerBuild(b *testing.B) {
	m, err := core.ExplicitFair(16, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSampler(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplerSample(b *testing.B) {
	m, err := core.ExplicitFair(16, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSampler(m)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(src, i%17)
	}
}

func BenchmarkTwoSidedGeometric(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.TwoSidedGeometric(src, 0.9)
	}
}

func BenchmarkBinomialGroups(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.BinomialGroups(10000, 8, 0.3, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignUnconstrained(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := design.Solve(design.Problem{N: 8, Alpha: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignWMCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		if _, err := design.WM(8, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignWMReduced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := design.Solve(design.Problem{
			N: 12, Alpha: 0.9, Props: design.WMProps, ReduceSymmetry: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignWMFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := design.Solve(design.Problem{
			N: 12, Alpha: 0.9, Props: design.WMProps,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignChooseN64 measures a cold Figure 5 decision at n=64
// down the WM LP path. At ~3 s/op it runs a single iteration under CI's
// -benchtime 0.5s, so benchjson publishes it in BENCH_lp.json for
// observability but skips it in the regression gate (too few samples);
// the enforced guard for this path is TestChooseN64UnderBudget's 10 s
// wall-clock ceiling, with BenchmarkDesignChooseN24 as the gated proxy.
func BenchmarkDesignChooseN64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		if _, err := design.Choose(64, 0.9, core.ColumnMonotone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignChooseN256 measures the serving-scale cold build the
// raised service.MaxLPN admits: the WM LP at n=256 through the bounded
// simplex with presolve and the geometric-vertex crash basis (~6 s/op).
// Like N64 it yields a single iteration under CI's -benchtime, so it is
// published in BENCH_lp.json but not regression-gated; the enforced
// guard is TestWMDesignN256UnderBudget's 10 s wall-clock ceiling.
func BenchmarkDesignChooseN256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		if _, err := design.Choose(256, 0.9, core.ColumnMonotone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignChooseN1024 measures the largest cold build the raised
// service.MaxLPN admits: the WM LP at n=1024 through the band-reduced
// path (interior fixed to the geometric mechanism, O(d·n)-variable
// boundary LP; ~3 s/op). Like N64 and N256 it yields a single iteration
// under CI's -benchtime, so it is published in BENCH_lp.json but not
// regression-gated; the enforced guard is TestWMDesignN1024UnderBudget's
// self-calibrating 10 s wall-clock ceiling.
func BenchmarkDesignChooseN1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		if _, err := design.Choose(1024, 0.9, core.ColumnMonotone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignChooseN24 is the gated CI proxy for LP-path scaling: a
// cold WM LP at n=24 (the old dense limit) is fast enough to collect
// several samples per run, so the 30% regression gate applies to it.
func BenchmarkDesignChooseN24(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		if _, err := design.Choose(24, 0.9, core.ColumnMonotone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignAlphaSweepWarm measures an α-sweep at n=16, the shape
// internal/figures runs. Each step is a cold solve from the geometric
// crash vertex (design keeps no basis between solves); the name is kept
// so the committed baseline still applies.
func BenchmarkDesignAlphaSweepWarm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		design.ClearCache()
		for _, alpha := range []float64{0.60, 0.62, 0.64, 0.66, 0.68, 0.70} {
			if _, err := design.Solve(design.Problem{
				N: 16, Alpha: alpha, Props: design.WMProps, ReduceSymmetry: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGenerateAdult(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.GenerateAdult(1000, src)
	}
}

func BenchmarkExperimentRun(b *testing.B) {
	m, err := core.ExplicitFair(8, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := dataset.BinomialGroups(10000, 8, 0.4, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := core.NewSampler(m)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	out := make([]int, 0, len(groups.Counts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = sampler.SampleMany(src, groups.Counts, out[:0])
	}
}
