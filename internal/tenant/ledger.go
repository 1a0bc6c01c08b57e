package tenant

// The ε-ledger: a persistent, crash-safe account of how much privacy budget
// each tenant has spent against each sensitive source graph. The paper's
// post-processing property makes this the only account the service needs —
// fitting a model under ε-DP spends ε once, and sampling the fitted model is
// free forever after — so the ledger records fits only, keyed by
// (tenant, graph content address).
//
// Persistence is an append-only JSONL file (Dir/ledger.jsonl): every admitted
// charge appends one line and syncs it to disk *before* the fit is allowed to
// run, so a crash can never lose a spend that released information. Refunds
// (for fits that were cancelled or failed before producing a model) append
// negative-ε lines; losing a refund to a crash errs in the conservative
// direction. On load, a complete line that does not parse into an entry
// fails the open: skipping a damaged charge would hand its ε back. A final
// line without its newline is a charge that was never admitted (the crash hit
// before the sync returned): it is skipped, reported via Warnings, and cut
// from the file before the next append.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ledgerFile is the append-only spend log inside the tenant directory.
const ledgerFile = "ledger.jsonl"

// spendTol absorbs floating-point rounding when charges nominally sum to the
// budget (mirrors dp.Budget.Spend's tolerance).
const spendTol = 1e-9

// entry is one JSONL line of the ledger. Epsilon is negative for refunds.
type entry struct {
	Tenant  string    `json:"tenant"`
	Graph   string    `json:"graph"`
	Epsilon float64   `json:"epsilon"`
	At      time.Time `json:"at"`
}

// ledgerKey identifies one (tenant, graph) account.
type ledgerKey struct{ tenant, graph string }

// Ledger tracks ε spent per (tenant, graph), optionally persisted as
// append-only JSONL. Safe for concurrent use; Charge is atomic — under
// concurrent requests exactly the charges that fit under the budget are
// admitted, never one more.
type Ledger struct {
	mu       sync.Mutex
	log      *appendLog // nil when in-memory
	spent    map[ledgerKey]float64
	warnings []string
	clock    func() time.Time
}

// OpenLedger opens (or creates) the ledger under dir; an empty dir keeps the
// ledger in memory only. Existing entries are replayed into the in-memory
// totals. A complete line that is not a valid entry fails the open with an
// error naming its file:line, leaving the file as it was; a torn final line
// is dropped and reported via Warnings.
func OpenLedger(dir string) (*Ledger, error) {
	l := &Ledger{spent: make(map[ledgerKey]float64), clock: time.Now}
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating ledger directory: %w", err)
	}
	log, torn, err := openLog(filepath.Join(dir, ledgerFile), l.replay)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening ledger: %w", err)
	}
	for k, spent := range l.spent {
		budgetSpentGauge.With(k.tenant, k.graph).SetFloat(spent)
	}
	if torn != "" {
		l.warnings = append(l.warnings, torn)
	}
	l.log = log
	return l, nil
}

// replay adds one persisted entry to the in-memory totals. Totals are
// clamped at zero so a stray refund line can never manufacture budget.
func (l *Ledger) replay(line []byte) error {
	var e entry
	if err := decodeEntry(line, &e); err != nil {
		return err
	}
	if e.Tenant == "" || e.Graph == "" {
		return errors.New("entry missing tenant or graph")
	}
	k := ledgerKey{e.Tenant, e.Graph}
	l.spent[k] += e.Epsilon
	if l.spent[k] < 0 {
		l.spent[k] = 0
	}
	return nil
}

// Warnings reports the torn final line dropped on load, if any: an append
// that never returned, so the charge or refund it carried was never
// acknowledged and correctly does not count.
func (l *Ledger) Warnings() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.warnings...)
}

// Spent returns the ε charged so far against one (tenant, graph) account.
func (l *Ledger) Spent(tenant, graph string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent[ledgerKey{tenant, graph}]
}

// BudgetError reports a refused charge, carrying the remaining budget so the
// serving layer can tell the tenant exactly how much ε they have left for
// the graph.
type BudgetError struct {
	Tenant    string
	Graph     string
	Requested float64
	Remaining float64
	Budget    float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("tenant %s: requested ε=%v exceeds remaining budget %v of %v for graph %s",
		e.Tenant, e.Requested, e.Remaining, e.Budget, e.Graph)
}

// Charge atomically admits eps against the (tenant, graph) account if the
// running total stays within budget, persisting the entry (synced to disk)
// before reporting success. On refusal nothing is charged and the returned
// error is a *BudgetError carrying the remaining budget. The charge must
// happen *before* the fit runs: differential privacy accounting has to be
// pessimistic, because once noised measurements are released there is no
// taking them back.
func (l *Ledger) Charge(tenant, graph string, eps, budget float64) (remaining float64, err error) {
	if eps <= 0 {
		return 0, fmt.Errorf("tenant: cannot charge non-positive epsilon %v", eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := ledgerKey{tenant, graph}
	spent := l.spent[k]
	if spent+eps > budget+spendTol {
		return budget - spent, &BudgetError{
			Tenant: tenant, Graph: graph,
			Requested: eps, Remaining: budget - spent, Budget: budget,
		}
	}
	if err := l.log.append(entry{Tenant: tenant, Graph: graph, Epsilon: eps, At: l.clock()}); err != nil {
		// The entry may or may not have hit disk; treat it as charged in
		// memory so the in-process view stays pessimistic, but refuse the
		// admission — a spend we cannot durably record must not run.
		l.spent[k] = spent + eps
		budgetSpentGauge.With(tenant, graph).SetFloat(l.spent[k])
		return budget - l.spent[k], fmt.Errorf("tenant: persisting ledger entry: %w", err)
	}
	l.spent[k] = spent + eps
	budgetSpentGauge.With(tenant, graph).SetFloat(l.spent[k])
	return budget - l.spent[k], nil
}

// Refund returns eps to the (tenant, graph) account, clamped so the spent
// total never goes negative. It exists for admission accounting only: a fit
// whose charge was admitted but which was cancelled or failed before any
// fitted model existed released nothing, so its ε can be returned. It must
// never be called for a fit that produced a model (see dp.Budget.Refund for
// the same contract one layer down).
func (l *Ledger) Refund(tenant, graph string, eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("tenant: cannot refund non-positive epsilon %v", eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := ledgerKey{tenant, graph}
	if err := l.log.append(entry{Tenant: tenant, Graph: graph, Epsilon: -eps, At: l.clock()}); err != nil {
		return fmt.Errorf("tenant: persisting ledger refund: %w", err)
	}
	l.spent[k] -= eps
	if l.spent[k] < 0 {
		l.spent[k] = 0
	}
	budgetSpentGauge.With(tenant, graph).SetFloat(l.spent[k])
	return nil
}

// Close releases the append handle. Charges against a persistent ledger fail
// after Close; in-memory ledgers keep working.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
}
