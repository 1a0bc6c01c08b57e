// Package tenant adds the "who" dimension to the AGM-DP synthesis service:
// API-key identity, a persistent per-(tenant, source-graph) privacy-budget
// ledger, and per-tenant admission control (token-bucket rate limits).
//
// The paper's post-processing property shapes the whole design. Fitting a
// model under ε-differential privacy spends ε of a tenant's budget against
// the sensitive input graph — once spent, that information is released and
// can never be clawed back, so charges are admitted pessimistically (charged
// and synced to disk before the fit runs) and refunded only when a fit was
// cancelled or failed before producing any model. Sampling a fitted model,
// by contrast, is free: it post-processes already-released parameters, so
// the ledger never sees a sample request. Admission control (rate limits,
// fit-concurrency bounds in the jobs layer) is what bounds *server* resources
// per tenant; the ledger is what bounds *privacy* loss per graph.
//
// Tenants are declared in a JSON config file (see File) mapping API keys to
// tenant IDs with optional per-tenant budget and rate overrides; the ledger
// persists as append-only JSONL under the tenant directory and is replayed
// on startup, so a restarted service remembers every ε ever spent.
package tenant

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"agmdp/internal/obs"
)

// Per-tenant observability on the process-wide registry: the spent-ε gauge is
// the ledger made scrapeable (fractional values — the obs gauges are
// float-valued), and the admission-reject counter is shared with the serving
// layer's middleware via RejectReason labels.
var budgetSpentGauge = obs.Default().GaugeVec("agmdp_tenant_budget_spent",
	"Privacy budget ε spent on DP fits, by tenant and source graph.",
	"tenant", "graph")

// Default admission parameters, applied when neither the tenant nor the
// config file's defaults override them.
const (
	// DefaultBudget is the per-(tenant, graph) ε cap.
	DefaultBudget = 10.0
	// DefaultRatePerSec is the steady-state request rate per tenant.
	DefaultRatePerSec = 50.0
	// DefaultBurst is the token-bucket depth per tenant.
	DefaultBurst = 100.0
)

// Tenant declares one tenant of the service.
type Tenant struct {
	// ID is the stable tenant identifier — ledger entries, metrics labels
	// and log lines all use it. Required, unique.
	ID string `json:"id"`
	// Key is the API key presented in requests (X-API-Key or Authorization:
	// Bearer). Required, unique. Keys are credentials: the registry never
	// logs them and exposes only IDs.
	Key string `json:"key"`
	// Budget is the ε cap per (tenant, source graph); ≤ 0 inherits the
	// file's default_budget (itself defaulting to DefaultBudget).
	Budget float64 `json:"budget,omitempty"`
	// RatePerSec and Burst shape the tenant's token bucket; ≤ 0 inherits
	// the file defaults.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
}

// File is the tenants config file schema: file-level defaults plus the
// tenant list.
type File struct {
	// DefaultBudget is the per-(tenant, graph) ε cap for tenants that do not
	// override it; ≤ 0 selects DefaultBudget.
	DefaultBudget float64 `json:"default_budget,omitempty"`
	// DefaultRatePerSec / DefaultBurst shape the default token bucket.
	DefaultRatePerSec float64 `json:"default_rate_per_sec,omitempty"`
	DefaultBurst      float64 `json:"default_burst,omitempty"`
	// OperatorToken, when set, unlocks the operator surfaces (/metrics,
	// /v1/stats, /debug/pprof/) on a tenant-enabled server. Those endpoints
	// expose per-tenant labels (budget spends keyed by tenant and graph
	// content address), so tenant keys do not open them — only this token
	// does, and without one they fail closed. Like keys, the token is a
	// credential and is never logged.
	OperatorToken string `json:"operator_token,omitempty"`
	// Tenants is the tenant list. At least one entry is required — an empty
	// tenant file would lock every caller out.
	Tenants []Tenant `json:"tenants"`
}

// Options configures Open.
type Options struct {
	// Path is the tenants config JSON file. Required.
	Path string
	// Dir persists the ε-ledger (append-only JSONL); empty keeps the ledger
	// in memory — spends then die with the process, acceptable only for
	// tests and experiments.
	Dir string
	// Clock overrides the time source for rate limiting and ledger
	// timestamps (tests).
	Clock func() time.Time
}

// Registry resolves API keys to tenants and enforces their budgets and rate
// limits. Safe for concurrent use.
//
// Keys are looked up by SHA-256 digest, never by the raw string: map lookup
// over raw credentials is a (weak) timing side channel for key guessing,
// while digest lookup makes the comparison time independent of how much of
// the key the caller got right.
type Registry struct {
	byKey    map[[sha256.Size]byte]*Tenant
	byID     map[string]*Tenant
	limits   map[string]*bucket
	defaults File
	opToken  []byte // SHA-256 of OperatorToken; nil when unset
	ledger   *Ledger
	owners   *Owners
	clock    func() time.Time
}

// Open loads the tenants file, the ε-ledger and the ownership log. Config
// errors (missing file, duplicate keys or IDs, empty tenant list) fail the
// open — a service that cannot tell its tenants apart must not start — and
// so does a damaged line in the middle of either log, which could otherwise
// hand back spent ε or restore a revoked grant. A torn final line does not:
// it is dropped and reported via Warnings.
func Open(opts Options) (*Registry, error) {
	if opts.Path == "" {
		return nil, errors.New("tenant: no tenants file configured")
	}
	data, err := os.ReadFile(opts.Path)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading tenants file: %w", err)
	}
	var file File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("tenant: parsing %s: %w", opts.Path, err)
	}
	return New(file, opts)
}

// New builds a registry from an in-memory config (the testable core of
// Open).
func New(file File, opts Options) (*Registry, error) {
	if len(file.Tenants) == 0 {
		return nil, errors.New("tenant: tenants file declares no tenants")
	}
	if file.DefaultBudget <= 0 {
		file.DefaultBudget = DefaultBudget
	}
	if file.DefaultRatePerSec <= 0 {
		file.DefaultRatePerSec = DefaultRatePerSec
	}
	if file.DefaultBurst <= 0 {
		file.DefaultBurst = DefaultBurst
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	r := &Registry{
		byKey:    make(map[[sha256.Size]byte]*Tenant, len(file.Tenants)),
		byID:     make(map[string]*Tenant, len(file.Tenants)),
		limits:   make(map[string]*bucket, len(file.Tenants)),
		defaults: file,
		clock:    clock,
	}
	if file.OperatorToken != "" {
		digest := sha256.Sum256([]byte(file.OperatorToken))
		r.opToken = digest[:]
	}
	for i := range file.Tenants {
		t := &file.Tenants[i]
		if t.ID == "" || t.Key == "" {
			return nil, fmt.Errorf("tenant: entry %d missing id or key", i)
		}
		if _, dup := r.byID[t.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant id %q", t.ID)
		}
		digest := sha256.Sum256([]byte(t.Key))
		if _, dup := r.byKey[digest]; dup {
			return nil, fmt.Errorf("tenant: duplicate API key (tenant %q)", t.ID)
		}
		r.byID[t.ID] = t
		r.byKey[digest] = t
		rate, burst := t.RatePerSec, t.Burst
		if rate <= 0 {
			rate = file.DefaultRatePerSec
		}
		if burst <= 0 {
			burst = file.DefaultBurst
		}
		r.limits[t.ID] = newBucket(rate, burst, clock())
	}
	ledger, err := OpenLedger(opts.Dir)
	if err != nil {
		return nil, err
	}
	ledger.clock = clock
	r.ledger = ledger
	owners, err := OpenOwners(opts.Dir)
	if err != nil {
		ledger.Close()
		return nil, err
	}
	owners.clock = clock
	r.owners = owners
	return r, nil
}

// Resolve maps an API key to its tenant; ok is false for unknown keys. The
// lookup hashes the presented key first, so its timing does not depend on
// how closely the guess matches any real key.
func (r *Registry) Resolve(key string) (*Tenant, bool) {
	if key == "" {
		return nil, false
	}
	t, ok := r.byKey[sha256.Sum256([]byte(key))]
	return t, ok
}

// Operator reports whether token is the configured operator token
// (constant-time over digests). It is false for every token — including
// valid tenant keys — when no operator token is configured: the operator
// surfaces fail closed.
func (r *Registry) Operator(token string) bool {
	if r.opToken == nil || token == "" {
		return false
	}
	digest := sha256.Sum256([]byte(token))
	return subtle.ConstantTimeCompare(digest[:], r.opToken) == 1
}

// Budget resolves a tenant's effective per-graph ε cap.
func (r *Registry) Budget(t *Tenant) float64 {
	if t.Budget > 0 {
		return t.Budget
	}
	return r.defaults.DefaultBudget
}

// Allow consumes one token from the tenant's rate bucket, reporting whether
// the request may proceed. Unknown IDs are refused.
func (r *Registry) Allow(tenantID string) bool {
	b, ok := r.limits[tenantID]
	if !ok {
		return false
	}
	return b.allow(r.clock())
}

// Charge atomically spends eps of the tenant's budget for graphID (charged
// and persisted before the fit may run). The remaining budget after (on
// success) or at refusal (with a *BudgetError) is returned either way.
func (r *Registry) Charge(t *Tenant, graphID string, eps float64) (remaining float64, err error) {
	return r.ledger.Charge(t.ID, graphID, eps, r.Budget(t))
}

// Refund returns eps to the tenant's account for graphID. Only for fits that
// never produced a model; see Ledger.Refund.
func (r *Registry) Refund(tenantID, graphID string, eps float64) error {
	return r.ledger.Refund(tenantID, graphID, eps)
}

// Spent reports the ε charged so far against (tenant, graph).
func (r *Registry) Spent(tenantID, graphID string) float64 {
	return r.ledger.Spent(tenantID, graphID)
}

// Grant records that the tenant holds a handle on resource (kind, id); see
// Owners.Grant. The serving layer calls it whenever a tenant creates a
// graph, model or job.
func (r *Registry) Grant(kind, id, tenantID string) error {
	return r.owners.Grant(kind, id, tenantID)
}

// RevokeOwner drops the tenant's handle on resource (kind, id), reporting
// whether it was the last handle; see Owners.Revoke.
func (r *Registry) RevokeOwner(kind, id, tenantID string) (last bool, err error) {
	return r.owners.Revoke(kind, id, tenantID)
}

// Owns reports whether the tenant holds a handle on resource (kind, id).
func (r *Registry) Owns(kind, id, tenantID string) bool {
	return r.owners.Owns(kind, id, tenantID)
}

// Warnings reports torn final lines the ledger and ownership log dropped on
// load (see Ledger.Warnings, Owners.Warnings).
func (r *Registry) Warnings() []string {
	return append(r.ledger.Warnings(), r.owners.Warnings()...)
}

// Close releases the ledger's and ownership log's append handles.
func (r *Registry) Close() error {
	err := r.ledger.Close()
	if oerr := r.owners.Close(); err == nil {
		err = oerr
	}
	return err
}
