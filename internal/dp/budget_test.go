package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(1.0)
	if b.Spent() != 0 || b.Remaining() != 1.0 {
		t.Fatalf("fresh budget state: spent=%v remaining=%v", b.Spent(), b.Remaining())
	}
	if err := b.Spend(0.4); err != nil {
		t.Fatalf("Spend(0.4): %v", err)
	}
	if err := b.Spend(0.6); err != nil {
		t.Fatalf("Spend(0.6): %v", err)
	}
	if math.Abs(b.Remaining()) > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", b.Remaining())
	}
	err := b.Spend(0.1)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overspend error = %v, want ErrBudgetExhausted", err)
	}
}

func TestBudgetRejectsNonPositiveSpend(t *testing.T) {
	b := NewBudget(1)
	if err := b.Spend(0); err == nil {
		t.Fatal("Spend(0) succeeded")
	}
	if err := b.Spend(-0.1); err == nil {
		t.Fatal("Spend(-0.1) succeeded")
	}
	if b.Spent() != 0 {
		t.Fatal("failed spends must not be charged")
	}
}

func TestBudgetToleratesFloatingPointSplit(t *testing.T) {
	b := NewBudget(0.3)
	parts := SplitEven(0.3, 3)
	for _, p := range parts {
		if err := b.Spend(p); err != nil {
			t.Fatalf("spending an even split failed: %v", err)
		}
	}
}

func TestBudgetConcurrentSpends(t *testing.T) {
	b := NewBudget(1.0)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.Spend(0.1)
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 10 {
		t.Fatalf("%d spends of 0.1 succeeded against a budget of 1.0, want 10", ok)
	}
}

func TestNewBudgetPanicsOnNonPositive(t *testing.T) {
	mustPanic(t, func() { NewBudget(0) }, "zero budget")
	mustPanic(t, func() { NewBudget(-1) }, "negative budget")
}

func TestSplitEven(t *testing.T) {
	parts := SplitEven(1.0, 4)
	if len(parts) != 4 {
		t.Fatalf("SplitEven returned %d parts, want 4", len(parts))
	}
	sum := 0.0
	for _, p := range parts {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("part = %v, want 0.25", p)
		}
		sum += p
	}
	if math.Abs(sum-1.0) > 1e-12 {
		t.Fatalf("parts sum to %v, want 1", sum)
	}
	mustPanic(t, func() { SplitEven(1, 0) }, "zero parts")
	mustPanic(t, func() { SplitEven(0, 2) }, "zero epsilon")
}

func TestSplitWeighted(t *testing.T) {
	// The paper's FCL split: half for S, quarter each for ΘF and ΘX.
	parts := SplitWeighted(1.0, []float64{2, 1, 1})
	want := []float64{0.5, 0.25, 0.25}
	for i := range want {
		if math.Abs(parts[i]-want[i]) > 1e-12 {
			t.Fatalf("SplitWeighted = %v, want %v", parts, want)
		}
	}
	mustPanic(t, func() { SplitWeighted(0, []float64{1}) }, "zero epsilon")
	mustPanic(t, func() { SplitWeighted(1, nil) }, "no weights")
	mustPanic(t, func() { SplitWeighted(1, []float64{-1, 2}) }, "negative weight")
	mustPanic(t, func() { SplitWeighted(1, []float64{0, 0}) }, "all-zero weights")
}

func TestBudgetRefund(t *testing.T) {
	b := NewBudget(1.0)
	if err := b.Spend(0.8); err != nil {
		t.Fatalf("Spend(0.8): %v", err)
	}
	// An admission layer returning a charge for a fit that never ran: the
	// budget must be spendable again.
	if err := b.Refund(0.8); err != nil {
		t.Fatalf("Refund(0.8): %v", err)
	}
	if math.Abs(b.Remaining()-1.0) > 1e-9 {
		t.Fatalf("Remaining after refund = %v, want 1.0", b.Remaining())
	}
	if err := b.Spend(1.0); err != nil {
		t.Fatalf("Spend(1.0) after refund: %v", err)
	}
	// Refunds clamp at zero spent: a stray over-refund can never manufacture
	// budget beyond the configured total.
	b2 := NewBudget(1.0)
	if err := b2.Spend(0.3); err != nil {
		t.Fatal(err)
	}
	if err := b2.Refund(5.0); err != nil {
		t.Fatalf("over-refund: %v", err)
	}
	if b2.Spent() != 0 || math.Abs(b2.Remaining()-1.0) > 1e-9 {
		t.Fatalf("clamped refund state: spent=%v remaining=%v", b2.Spent(), b2.Remaining())
	}
	if err := b2.Refund(0); err == nil {
		t.Fatal("Refund(0) accepted")
	}
	if err := b2.Refund(-1); err == nil {
		t.Fatal("Refund(-1) accepted")
	}
}
