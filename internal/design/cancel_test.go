package design

import (
	"context"
	"errors"
	"testing"
	"time"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// TestSolveCtxCancelsMidFlight cancels a cold WM-style design solve
// shortly after it starts and checks that (a) the error classifies as a
// cancellation via the lp sentinel, and (b) the cancelled attempt left
// nothing behind: the very next solve of the same problem completes and
// produces a valid mechanism.
func TestSolveCtxCancelsMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second LP cancel test skipped in -short mode")
	}
	ClearCache()
	p := Problem{N: 96, Alpha: 0.75, Props: WMProps, ReduceSymmetry: true}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := SolveCtx(ctx, p); err == nil {
		t.Log("solve finished before the cancel landed; the follow-up solve still runs")
	} else if !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("SolveCtx error = %v, want lp.ErrCanceled", err)
	}

	// The follow-up solve starts cold, like any other, and must reach a
	// valid WM mechanism.
	r, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if !r.Mechanism.Check(core.Closure(WMProps), 1e-7) {
		t.Fatal("mechanism built after a cancelled attempt fails its property check")
	}
}

// TestChooseCtxPreCanceled pins that the LP-backed Choose branches
// respect the context while the closed-form branches stay non-blocking.
func TestChooseCtxPreCanceled(t *testing.T) {
	ClearCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Fairness resolves to the closed-form EM: no LP, no cancellation.
	if _, err := ChooseCtx(ctx, 8, 0.7, core.Fairness); err != nil {
		t.Fatalf("closed-form choose branch failed under canceled ctx: %v", err)
	}
	// A column property at alpha > 1/2 needs the WM LP: must cancel.
	if _, err := ChooseCtx(ctx, 16, 0.8, core.ColumnMonotone); !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("LP-backed choose branch error = %v, want lp.ErrCanceled", err)
	}
}

// TestSolveMinimaxCtxPreCanceled is the epigraph-path equivalent.
func TestSolveMinimaxCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveMinimaxCtx(ctx, Problem{N: 12, Alpha: 0.8})
	if !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("SolveMinimaxCtx error = %v, want lp.ErrCanceled", err)
	}
}
