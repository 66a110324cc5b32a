package core

import (
	"testing"

	"privcount/internal/rng"
)

// benchMix is the closed-form part of query-stream's serving set — GM
// and EM from n=16 to n=256 and UM at n=1024 — with GM at n=256 standing
// in for its n=256 band LP, which this package cannot build. It differs
// from that set in two ways: the n=192 RH LP has no stand-in, and the
// benchmark weights the seven evenly where query-stream draws its eight
// under a Zipf(1.2) skew, hottest first. It tracks the kernel, not the
// serving mix; perfbench's traced core.sample_ns_per_sample reads that.
func benchMix(b *testing.B) []*Sampler {
	b.Helper()
	type spec struct {
		kind  string
		n     int
		alpha float64
	}
	var out []*Sampler
	for _, sp := range []spec{
		{"gm", 64, 0.9}, {"gm", 256, 0.9}, {"em", 128, 0.8}, {"um", 1024, 0},
		{"gm", 16, 0.5}, {"em", 256, 0.7}, {"gm", 32, 0.3},
	} {
		var m *Mechanism
		var err error
		switch sp.kind {
		case "gm":
			m, err = Geometric(sp.n, sp.alpha)
		case "em":
			m, err = ExplicitFair(sp.n, sp.alpha)
		default:
			m, err = Uniform(sp.n)
		}
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewSampler(m)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// BenchmarkSampleManyInto measures the serving draw: one 256-count batch
// per op, cycling through the seven-mechanism mix, counts uniform over
// each mechanism's inputs. It reports ns per sample.
func BenchmarkSampleManyInto(b *testing.B) {
	mix := benchMix(b)
	r := rng.New(1)
	batches := make([][]int, len(mix))
	for i, s := range mix {
		batches[i] = make([]int, 256)
		for k := range batches[i] {
			batches[i][k] = r.IntN(s.m.n + 1)
		}
	}
	dst := make([]int, 256)
	src := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(mix)
		mix[k].SampleManyInto(src, batches[k], dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/sample")
}
