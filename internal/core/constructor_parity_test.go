package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"privcount/internal/mat"
)

// The reference constructors below are the closed forms' original
// column-major loops, with one math.Pow call per cell. The constructors
// now fill row by row from a table of powers; these tests hold them to
// the old loops bit for bit.

func refGeometric(n int, alpha float64) *mat.Dense {
	x := 1 / (1 + alpha)
	y := (1 - alpha) / (1 + alpha)
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			switch i {
			case 0:
				p.Set(i, j, x*math.Pow(alpha, float64(j)))
			case n:
				p.Set(i, j, x*math.Pow(alpha, float64(n-j)))
			default:
				p.Set(i, j, y*math.Pow(alpha, float64(abs(i-j))))
			}
		}
	}
	return p
}

func refExplicitFair(n int, alpha float64) *mat.Dense {
	var s0 float64
	for i := 0; i <= n; i++ {
		s0 += math.Pow(alpha, float64(explicitFairExponent(n, i, 0)))
	}
	y := 1 / s0
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			p.Set(i, j, y*math.Pow(alpha, float64(explicitFairExponent(n, i, j))))
		}
	}
	return p
}

func refUniform(n int) *mat.Dense {
	p := mat.NewDense(n+1, n+1)
	v := 1 / float64(n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			p.Set(i, j, v)
		}
	}
	return p
}

// matrixHash hashes the Float64bits of every cell, row-major.
func matrixHash(p *mat.Dense) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, v := range p.AppendRowMajor(nil) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestClosedFormConstructorsMatchColumnLoops(t *testing.T) {
	for _, n := range []int{1, 16, 255, 1024} {
		for _, alpha := range []float64{0.3, 0.5, 0.9} {
			gm, err := Geometric(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			em, err := ExplicitFair(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name     string
				got, ref *mat.Dense
			}{
				{fmt.Sprintf("gm:n=%d:a=%g", n, alpha), gm.p, refGeometric(n, alpha)},
				{fmt.Sprintf("em:n=%d:a=%g", n, alpha), em.p, refExplicitFair(n, alpha)},
			} {
				if matrixHash(c.got) != matrixHash(c.ref) {
					t.Errorf("%s: matrix bits differ from the column-major loop", c.name)
				}
			}
		}
		um, err := Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		if matrixHash(um.p) != matrixHash(refUniform(n)) {
			t.Errorf("um:n=%d: matrix bits differ from the column-major loop", n)
		}
	}
}
