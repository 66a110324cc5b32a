// Command lpsolve solves linear programs written in the lp_solve-style
// text format accepted by the internal solver — the same interchange
// format the paper's PyLPSolve pipeline used.
//
// Usage:
//
//	lpsolve model.lp
//	echo 'max: 3x + 2y; c1: x + y <= 4; c2: x + 3y <= 6;' | lpsolve -
//	lpsolve -duals model.lp
//	lpsolve -method ipm -stats model.lp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"privcount/internal/lp"
)

func main() {
	var (
		showDuals = flag.Bool("duals", false, "print dual values per constraint")
		echo      = flag.Bool("echo", false, "echo the parsed model before solving")
		maxIter   = flag.Int("maxiter", 0, "simplex iteration limit (0 = automatic)")
		stats     = flag.Bool("stats", false, "print solver statistics (route, iterations, factorizations, nonzeros, wall time)")
		method    = flag.String("method", "auto", "solver back end: auto, sparse, or ipm")
	)
	flag.Parse()

	m, err := parseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpsolve:", err)
	}
	if err != nil || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lpsolve [-duals] [-echo] [-method auto|sparse|ipm] <file.lp | ->")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	model, err := lp.ParseLP(src)
	if err != nil {
		fatal(err)
	}
	if *echo {
		fmt.Print(model.WriteLP())
		fmt.Println()
	}

	start := time.Now()
	sol, err := model.SolveWith(lp.Options{MaxIterations: *maxIter, Method: m})
	elapsed := time.Since(start)
	if err != nil {
		// Terminations are first-class: report the cause (classified via
		// the lp sentinel errors, not string matching) alongside whatever
		// partial solution the solver handed back, then exit non-zero.
		if sol != nil {
			fmt.Printf("status:     %s\n", sol.Status)
			fmt.Printf("cause:      %s\n", lp.Cause(err))
			if *stats {
				fmt.Printf("iterations: %d\n", sol.Iterations)
				fmt.Printf("solve_seconds: %.6f\n", elapsed.Seconds())
			}
		}
		fatal(err)
	}
	fmt.Printf("status:     %s\n", sol.Status)
	fmt.Printf("objective:  %.10g\n", sol.Objective)
	fmt.Printf("iterations: %d\n", sol.Iterations)
	if *stats {
		ps := sol.Presolve
		fmt.Printf("stats:\n")
		fmt.Printf("  rows             %d\n", model.NumConstraints())
		fmt.Printf("  cols             %d\n", model.NumVariables())
		fmt.Printf("  nnz              %d\n", model.NumNonzeros())
		fmt.Printf("  route            %s\n", sol.Route)
		fmt.Printf("  presolve_rows    %d -> %d\n", ps.RowsIn, ps.RowsOut)
		fmt.Printf("  bounds_folded    %d\n", ps.BoundsFolded)
		fmt.Printf("  rows_dominated   %d\n", ps.DominatedRows)
		fmt.Printf("  rows_duplicate   %d\n", ps.DuplicateRows)
		fmt.Printf("  rows_implied     %d\n", ps.ImpliedRows+ps.EmptyRows)
		fmt.Printf("  vars_fixed       %d\n", ps.FixedVars)
		fmt.Printf("  bound_flips      %d\n", sol.BoundFlips)
		fmt.Printf("  factorizations   %d\n", sol.Refactorizations)
		if sol.Route == "ipm" {
			fmt.Printf("  duality_gap      %.3g\n", sol.Gap)
		}
		fmt.Printf("  solve_seconds    %.6f\n", elapsed.Seconds())
	}
	fmt.Println("variables:")
	for v := 0; v < model.NumVariables(); v++ {
		fmt.Printf("  %-16s %.10g\n", model.VariableName(v), sol.Value(v))
	}
	if *showDuals {
		fmt.Println("duals:")
		for i := 0; i < model.NumConstraints(); i++ {
			fmt.Printf("  %-16s %.10g\n", model.Constraint(i).Name, sol.Duals[i])
		}
	}
}

// parseMethod maps the -method flag onto the solver back ends. "auto"
// keeps the full route (presolve, IPM for large models, dual route for
// tall ones, bounded simplex); "sparse" forces the bounded simplex and
// "ipm" the interior point method.
func parseMethod(s string) (lp.Method, error) {
	switch s {
	case "", "auto":
		return lp.MethodAuto, nil
	case "sparse":
		return lp.MethodSparse, nil
	case "ipm":
		return lp.MethodIPM, nil
	}
	return 0, fmt.Errorf("unknown -method %q (want auto, sparse, or ipm)", s)
}

func readSource(path string) (string, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		r = f
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpsolve:", err)
	os.Exit(1)
}
