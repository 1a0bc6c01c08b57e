package tenant

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChargeConcurrentNeverOverCommits races many goroutines against one
// budget: exactly the charges that fit are admitted — never one more — and
// the final spent total equals the budget.
func TestChargeConcurrentNeverOverCommits(t *testing.T) {
	l, err := OpenLedger("")
	if err != nil {
		t.Fatal(err)
	}
	const (
		budget  = 10.0
		eps     = 1.0
		callers = 100
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
		refused  int
	)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Charge("t1", "g1", eps, budget)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				admitted++
			} else {
				var be *BudgetError
				if !asBudgetError(err, &be) {
					t.Errorf("unexpected charge error: %v", err)
				}
				refused++
			}
		}()
	}
	wg.Wait()
	if admitted != 10 || refused != callers-10 {
		t.Errorf("admitted %d, refused %d; want exactly 10 admitted", admitted, refused)
	}
	if got := l.Spent("t1", "g1"); got != budget {
		t.Errorf("spent %v, want %v", got, budget)
	}
	// One more charge must carry the arithmetic in its BudgetError.
	remaining, err := l.Charge("t1", "g1", eps, budget)
	var be *BudgetError
	if !asBudgetError(err, &be) {
		t.Fatalf("expected *BudgetError, got %v", err)
	}
	if remaining != 0 || be.Remaining != 0 || be.Budget != budget || be.Requested != eps {
		t.Errorf("BudgetError = %+v (remaining %v), want remaining 0 of %v", be, remaining, budget)
	}
}

// asBudgetError is errors.As without the import noise in assertions.
func asBudgetError(err error, target **BudgetError) bool {
	be, ok := err.(*BudgetError)
	if ok {
		*target = be
	}
	return ok
}

// TestLedgerRestartRoundTrip persists charges and a refund, reopens the
// ledger from disk, and expects the same totals — a restarted service
// remembers every ε ever spent.
func TestLedgerRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCharge := func(tenant, graph string, eps float64) {
		t.Helper()
		if _, err := l.Charge(tenant, graph, eps, 100); err != nil {
			t.Fatal(err)
		}
	}
	mustCharge("t1", "g1", 0.5)
	mustCharge("t1", "g1", 1.5)
	mustCharge("t1", "g2", 3.0)
	mustCharge("t2", "g1", 0.25)
	if err := l.Refund("t1", "g1", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if w := re.Warnings(); len(w) != 0 {
		t.Errorf("unexpected warnings on clean reload: %v", w)
	}
	for _, tc := range []struct {
		tenant, graph string
		want          float64
	}{
		{"t1", "g1", 0.5},
		{"t1", "g2", 3.0},
		{"t2", "g1", 0.25},
		{"t2", "g2", 0},
	} {
		if got := re.Spent(tc.tenant, tc.graph); got != tc.want {
			t.Errorf("Spent(%s, %s) = %v after reload, want %v", tc.tenant, tc.graph, got, tc.want)
		}
	}
}

// TestLedgerClosedRefusesCharges pins the durability contract: a persistent
// ledger whose append handle is closed refuses admission rather than
// recording spends only in memory.
func TestLedgerClosedRefusesCharges(t *testing.T) {
	l, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("t1", "g1", 1, 100); err == nil {
		t.Fatal("charge after Close succeeded; want durable-record failure")
	}
}

// TestLedgerCorruptLineRefusesOpen: a complete line in the middle of the
// ledger that is not a valid entry could be a charge, and skipping it would
// hand its ε back. The open must fail, name the file and line, and leave the
// file byte for byte as it was (its torn tail included) for the operator to
// repair.
func TestLedgerCorruptLineRefusesOpen(t *testing.T) {
	const (
		good = `{"tenant":"t1","graph":"g1","epsilon":1.5,"at":"2026-01-02T03:04:05Z"}`
		torn = `{"tenant":"t1","graph":"g1","eps`
	)
	for _, tc := range []struct{ name, line string }{
		{"garbage", `not json at all`},
		{"half an entry", `{"tenant":"t1","graph":"g1","eps`},
		{"missing tenant", `{"tenant":"","graph":"g1","epsilon":4}`},
		{"missing graph", `{"tenant":"t1","epsilon":4}`},
		{"null", `null`},
		{"epsilon not a number", `{"tenant":"t1","graph":"g1","epsilon":"4"}`},
		{"bad timestamp", `{"tenant":"t1","graph":"g1","epsilon":4,"at":"yesterday"}`},
		{"damaged epsilon key", `{"tenant":"t1","graph":"g1","epsiloo":4}`},
		{"data after the entry", `{"tenant":"t1","graph":"g1","epsilon":4} 7`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, ledgerFile)
			data := []byte(good + "\n" + tc.line + "\n" + good + "\n" + torn)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := OpenLedger(dir)
			if err == nil {
				l.Close()
				t.Fatalf("OpenLedger accepted a corrupt line; Spent(t1, g1) = %v", l.Spent("t1", "g1"))
			}
			if !strings.Contains(err.Error(), ledgerFile+":2:") {
				t.Errorf("error %q does not name %s:2", err, ledgerFile)
			}
			if after, _ := os.ReadFile(path); string(after) != string(data) {
				t.Errorf("ledger changed by a refused open:\n%q\nwant\n%q", after, data)
			}
		})
	}
}

// TestLedgerTornTailDropped: a crash mid-append leaves a final line without
// its newline, a charge that was never acknowledged. Replay must not count
// it even when it parses, and the next charge must land on a line of its own
// so a later restart still counts it.
func TestLedgerTornTailDropped(t *testing.T) {
	const good = `{"tenant":"t1","graph":"g1","epsilon":1,"at":"2026-01-02T03:04:05Z"}` + "\n"
	for name, tail := range map[string]string{
		"half line":   `{"tenant":"t1","graph":"g1","eps`,
		"whole entry": `{"tenant":"t1","graph":"g1","epsilon":5,"at":"2026-01-02T03:04:06Z"}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ledgerFile), []byte(good+tail), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := OpenLedger(dir)
			if err != nil {
				t.Fatal(err)
			}
			if w := l.Warnings(); len(w) != 1 || !strings.Contains(w[0], ledgerFile+":2:") {
				t.Errorf("warnings = %v, want one for line 2", w)
			}
			if _, err := l.Charge("t1", "g1", 2, 100); err != nil {
				t.Fatal(err)
			}
			if got := l.Spent("t1", "g1"); got != 3 {
				t.Errorf("Spent = %v, want 3 (the torn tail was never admitted)", got)
			}
			l.Close()

			re, err := OpenLedger(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Spent("t1", "g1"); got != 3 {
				t.Errorf("Spent after restart = %v, want 3: an admitted charge was forgotten", got)
			}
			if w := re.Warnings(); len(w) != 0 {
				t.Errorf("warnings after restart = %v, want none", w)
			}
		})
	}
}

// TestRefundClampsAtZero: refunding more than was spent leaves zero, never a
// negative balance that would mint budget.
func TestRefundClampsAtZero(t *testing.T) {
	l, err := OpenLedger("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("t1", "g1", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund("t1", "g1", 5); err != nil {
		t.Fatal(err)
	}
	if got := l.Spent("t1", "g1"); got != 0 {
		t.Errorf("spent %v after over-refund, want 0", got)
	}
	if err := l.Refund("t1", "g1", 0); err == nil {
		t.Error("zero refund accepted; want error")
	}
	if _, err := l.Charge("t1", "g1", -1, 10); err == nil {
		t.Error("negative charge accepted; want error")
	}

	// Replay clamps the same way: a persisted refund larger than the spends
	// before it leaves the account at zero, and later charges count in full.
	dir := t.TempDir()
	lines := `{"tenant":"t1","graph":"g1","epsilon":1}` + "\n" +
		`{"tenant":"t1","graph":"g1","epsilon":-9}` + "\n" +
		`{"tenant":"t1","graph":"g1","epsilon":0.5}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, ledgerFile), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Spent("t1", "g1"); got != 0.5 {
		t.Errorf("replayed spent %v, want 0.5 (over-refund clamped to 0, then +0.5)", got)
	}
}

// TestChargeToleratesRounding: charges that nominally sum to the budget
// admit despite float rounding (ten 0.1-charges against budget 1.0).
func TestChargeToleratesRounding(t *testing.T) {
	l, err := OpenLedger("")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		if _, err := l.Charge("t1", "g1", 0.1, 1.0); err != nil {
			t.Fatalf("charge %d refused: %v", i+1, err)
		}
	}
	if _, err := l.Charge("t1", "g1", 0.1, 1.0); err == nil {
		t.Error("11th 0.1-charge admitted over budget 1.0")
	}
}

// BenchmarkLedgerSpendMemory measures the in-memory charge path — the
// admission-control hot path when no tenant directory is configured.
func BenchmarkLedgerSpendMemory(b *testing.B) {
	l, err := OpenLedger("")
	if err != nil {
		b.Fatal(err)
	}
	benchmarkLedgerSpend(b, l)
}

// BenchmarkLedgerSpendPersisted measures the durable charge path: one JSONL
// append plus fsync per admitted fit. The fsync dominates — this is the price
// of never losing a spend to a crash.
func BenchmarkLedgerSpendPersisted(b *testing.B) {
	l, err := OpenLedger(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	benchmarkLedgerSpend(b, l)
}

func benchmarkLedgerSpend(b *testing.B, l *Ledger) {
	clock := time.Unix(0, 0)
	l.clock = func() time.Time { return clock }
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		// A fresh graph account each charge keeps every admission under
		// budget, so the benchmark never measures the refusal path.
		if _, err := l.Charge("bench", fmt.Sprintf("g%d", i), 0.5, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}
