package dp

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBudgetExhausted is returned by Budget.Spend when a requested allocation
// would exceed the remaining privacy budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Budget is a simple sequential-composition accountant for pure
// ε-differential privacy: every Spend reduces the remaining budget, and the
// total privacy loss of all operations charged to the budget is the sum of
// their epsilons (McSherry's sequential composition theorem). Budget is safe
// for concurrent use.
type Budget struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// NewBudget creates an accountant with the given total privacy budget ε > 0.
func NewBudget(epsilon float64) *Budget {
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: non-positive total budget %v", epsilon))
	}
	return &Budget{total: epsilon}
}

// Spent returns the privacy budget consumed so far.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}

// Remaining returns the unspent budget.
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.spent
}

// Spend charges epsilon against the budget. It returns ErrBudgetExhausted
// (and charges nothing) if the remaining budget is insufficient, and an error
// for non-positive requests. A tiny tolerance absorbs floating-point rounding
// when a caller splits a budget into parts that nominally sum to the total.
func (b *Budget) Spend(epsilon float64) error {
	if epsilon <= 0 {
		return fmt.Errorf("dp: cannot spend non-positive epsilon %v", epsilon)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	const tol = 1e-9
	if b.spent+epsilon > b.total+tol {
		return fmt.Errorf("%w: requested %v with %v remaining", ErrBudgetExhausted, epsilon, b.total-b.spent)
	}
	b.spent += epsilon
	return nil
}

// Refund returns epsilon to the budget, clamped so the spent total never
// goes negative. It exists for *admission* accounting — a serving layer that
// charges a fit's ε up front may return it when the fit is cancelled or fails
// before any noised measurement of the sensitive data was released. It must
// never be called for an operation whose output (even partial) was observed:
// differential privacy has no refunds for released information.
func (b *Budget) Refund(epsilon float64) error {
	if epsilon <= 0 {
		return fmt.Errorf("dp: cannot refund non-positive epsilon %v", epsilon)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent -= epsilon
	if b.spent < 0 {
		b.spent = 0
	}
	return nil
}

// SplitEven divides epsilon into k equal parts. It is the budget-splitting
// strategy the paper uses for AGM-DP with TriCycLe (four equal shares for ΘX,
// ΘF, S and n∆).
func SplitEven(epsilon float64, k int) []float64 {
	if k <= 0 {
		panic(fmt.Sprintf("dp: SplitEven with non-positive k=%d", k))
	}
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: SplitEven with non-positive epsilon %v", epsilon))
	}
	out := make([]float64, k)
	share := epsilon / float64(k)
	for i := range out {
		out[i] = share
	}
	return out
}

// SplitWeighted divides epsilon proportionally to the given non-negative
// weights (at least one must be positive). It supports the FCL budget split in
// the paper (half for the degree sequence, a quarter each for ΘX and ΘF).
func SplitWeighted(epsilon float64, weights []float64) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: SplitWeighted with non-positive epsilon %v", epsilon))
	}
	if len(weights) == 0 {
		panic("dp: SplitWeighted with no weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dp: SplitWeighted with negative weight")
		}
		sum += w
	}
	if sum == 0 {
		panic("dp: SplitWeighted with all-zero weights")
	}
	out := make([]float64, len(weights))
	for i, w := range weights {
		out[i] = epsilon * w / sum
	}
	return out
}
