package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func twoTenants() File {
	return File{Tenants: []Tenant{
		{ID: "alpha", Key: "alpha-key"},
		{ID: "beta", Key: "beta-key", Budget: 2.5, RatePerSec: 1, Burst: 2},
	}}
}

func TestNewValidatesConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		file File
		want string
	}{
		{"empty", File{}, "no tenants"},
		{"missing id", File{Tenants: []Tenant{{Key: "k"}}}, "missing id or key"},
		{"missing key", File{Tenants: []Tenant{{ID: "a"}}}, "missing id or key"},
		{"dup id", File{Tenants: []Tenant{{ID: "a", Key: "k1"}, {ID: "a", Key: "k2"}}}, "duplicate tenant id"},
		{"dup key", File{Tenants: []Tenant{{ID: "a", Key: "k"}, {ID: "b", Key: "k"}}}, "duplicate API key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.file, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestOpenReadsTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	data, err := json.Marshal(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if tn, ok := r.Resolve("beta-key"); !ok || tn.ID != "beta" {
		t.Errorf("Resolve(beta-key) = %v, %v", tn, ok)
	}
	if _, ok := r.Resolve("wrong-key"); ok {
		t.Error("unknown key resolved")
	}
	if _, ok := r.Resolve(""); ok {
		t.Error("empty key resolved")
	}

	// Unknown fields in the config are config mistakes, not extensions.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants":[{"id":"a","key":"k","buget":3}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: bad}); err == nil {
		t.Error("config with unknown field accepted")
	}
}

func TestBudgetDefaultsAndOverrides(t *testing.T) {
	r, err := New(twoTenants(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	alpha, _ := r.Resolve("alpha-key")
	beta, _ := r.Resolve("beta-key")
	if got := r.Budget(alpha); got != DefaultBudget {
		t.Errorf("alpha budget %v, want default %v", got, DefaultBudget)
	}
	if got := r.Budget(beta); got != 2.5 {
		t.Errorf("beta budget %v, want override 2.5", got)
	}
}

// TestAllowRateLimits drives beta's 1 rps / burst-2 bucket with a fake
// clock: the burst admits two, the third refuses, and one second of refill
// admits exactly one more.
func TestAllowRateLimits(t *testing.T) {
	now := time.Unix(1000, 0)
	r, err := New(twoTenants(), Options{Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := range 2 {
		if !r.Allow("beta") {
			t.Fatalf("burst request %d refused", i+1)
		}
	}
	if r.Allow("beta") {
		t.Fatal("request over burst admitted")
	}
	now = now.Add(time.Second)
	if !r.Allow("beta") {
		t.Fatal("request after 1s refill refused")
	}
	if r.Allow("beta") {
		t.Fatal("second request after 1s refill admitted (rate is 1 rps)")
	}
	// Unknown tenants are refused outright; alpha's default bucket is
	// independent of beta's.
	if r.Allow("nobody") {
		t.Error("unknown tenant admitted")
	}
	if !r.Allow("alpha") {
		t.Error("alpha refused despite a full default bucket")
	}
}

// TestRegistryChargePersistsAcrossRestart is the registry-level round trip:
// spends recorded through one registry bind the next one opened over the
// same ledger directory.
func TestRegistryChargePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	file := twoTenants()
	r, err := New(file, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	beta, _ := r.Resolve("beta-key")
	remaining, err := r.Charge(beta, "graph-1", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0.5 {
		t.Errorf("remaining %v, want 0.5", remaining)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := New(file, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Spent("beta", "graph-1"); got != 2.0 {
		t.Errorf("spent after restart %v, want 2.0", got)
	}
	beta2, _ := r2.Resolve("beta-key")
	if _, err := r2.Charge(beta2, "graph-1", 1.0); err == nil {
		t.Error("charge over restarted budget admitted")
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// A damaged line in either log keeps the registry, and so the service,
	// from starting.
	for _, name := range []string{ledgerFile, ownersFile} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("{garbage}\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if r3, err := New(file, Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), name) {
			if err == nil {
				r3.Close()
			}
			t.Errorf("New over a damaged %s = %v, want an error naming it", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
