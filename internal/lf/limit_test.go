package lf

import (
	"context"
	"errors"
	"testing"
)

// deepAppSpine builds an n-deep left-leaning application spine
// iteratively (the hostile producer's trick: recursion-free to build,
// recursion-heavy to traverse).
func deepAppSpine(n int) Term {
	t := Term(Konst{CTT})
	for i := 0; i < n; i++ {
		t = App{F: t, X: Konst{CTT}}
	}
	return t
}

// TestCheckerDepthLimit: a 1M-deep term must come back as a typed
// limit error, not a stack exhaustion. This is the regression test for
// converting the checker's deepest recursion to an explicit depth
// budget.
func TestCheckerDepthLimit(t *testing.T) {
	deep := deepAppSpine(1_000_000)
	c := NewChecker(NewSignature())
	c.MaxDepth = 10_000
	_, err := c.Infer(deep)
	if err == nil {
		t.Fatal("1M-deep term typechecked")
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Axis != "term_depth" {
		t.Fatalf("want term_depth LimitError, got %v", err)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("limit error does not match ErrLimit: %v", err)
	}
}

// TestCheckerDepthLimitDoesNotRejectRealProofs: the depth budget must
// be invisible to legitimate proofs.
func TestCheckerDepthLimitDoesNotRejectRealProofs(t *testing.T) {
	sig := NewSignature()
	tm := Apply(Konst{CAndI}, Konst{CTT}, Konst{CTT}, Konst{CTrueI}, Konst{CTrueI})
	want := App{Konst{CPf}, Apply(Konst{CAnd}, Konst{CTT}, Konst{CTT})}
	c := NewChecker(sig)
	c.MaxDepth = 4096
	c.MaxSteps = 1 << 20
	if err := c.Check(tm, want); err != nil {
		t.Fatalf("budgeted checker rejected a real proof: %v", err)
	}
}

// TestCheckerStepFuel: exhausting MaxSteps yields a typed limit error.
func TestCheckerStepFuel(t *testing.T) {
	deep := deepAppSpine(5000)
	c := NewChecker(NewSignature())
	c.MaxSteps = 100
	_, err := c.Infer(deep)
	var le *LimitError
	if !errors.As(err, &le) || le.Axis != "check_steps" {
		t.Fatalf("want check_steps LimitError, got %v", err)
	}
}

// TestCheckerInterrupt: a cancelled context threaded through Interrupt
// aborts a check in flight with a limit error wrapping the cause.
func TestCheckerInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	deep := deepAppSpine(100_000)
	c := NewChecker(NewSignature())
	c.Interrupt = ctx.Err
	_, err := c.Infer(deep)
	if err == nil {
		t.Fatal("interrupted check succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt cause not preserved: %v", err)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("interrupt not classified as a limit: %v", err)
	}
}

// TestSizeBounded: a hash-consed DAG expands to an exponential tree
// under traversal; the bounded walk must stop at the cap in time
// proportional to the cap, not the tree. (Unbounded Size on this term
// would walk 2^61-1 nodes.)
func TestSizeBounded(t *testing.T) {
	leaf := Term(Konst{Name: "x"})
	d := leaf
	for i := 0; i < 60; i++ {
		d = App{F: d, X: d} // each level doubles the tree
	}
	if got := SizeBounded(d, 1000); got != 1000 {
		t.Fatalf("SizeBounded(bomb, 1000) = %d, want the cap", got)
	}
	// Small trees are counted exactly, and max <= 0 means unbounded.
	small := App{F: App{F: leaf, X: leaf}, X: leaf}
	if got, want := SizeBounded(small, 1<<20), Size(small); got != want {
		t.Fatalf("SizeBounded(small) = %d, want %d", got, want)
	}
	if got, want := SizeBounded(small, 0), Size(small); got != want {
		t.Fatalf("SizeBounded(small, 0) = %d, want %d", got, want)
	}
}
