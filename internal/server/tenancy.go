package server

// Multi-tenant admission: API-key authentication, per-tenant rate limiting,
// ε-budget admission for DP fits, and per-tenant resource scoping. All of it
// is opt-in — a server built without Config.Tenants behaves exactly as
// before (every pre-tenancy test and client keeps working), while a
// tenant-enabled server authenticates every API request, throttles per
// tenant, charges each admitted DP fit against the tenant's persistent
// ε-ledger for the fit's source graph, and confines every tenant to the
// graphs, models and jobs it created itself.
//
// The division of labour follows the paper: fitting releases noised
// measurements of the sensitive graph, so it is the one operation that costs
// privacy budget and is refused once a tenant's ε for that graph is
// exhausted. Sampling, downloads and listings post-process already-released
// information — they stay free of ledger charges (and a test pins that a
// budget-exhausted tenant can still sample its fitted models), bounded only
// by the tenant's request rate.
//
// Resource scoping is what makes the budgets mean anything: the uploaded
// graphs are exactly the sensitive data the DP fit protects, so a tenant
// that could download another tenant's raw graph (or delete its models and
// cancel its jobs) would void the whole privacy story. Every created
// resource records its creating tenant in the registry's persistent
// ownership log; listings are filtered to the caller's resources and
// cross-tenant reads, deletes and cancels answer 404 — indistinguishable
// from the resource not existing. The stores underneath are
// content-addressed and shared, so ownership is a per-resource set of
// tenants: two tenants uploading the same graph each hold an independent
// handle, and a DELETE evicts the shared bytes only when the last handle is
// gone. Resources created while tenancy was disabled have no owner and are
// invisible to every tenant once it is enabled.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/tenant"
)

// apiKeyHeader is the primary credential header; Authorization: Bearer is
// accepted as an alias for proxy ecosystems that only forward Authorization.
const apiKeyHeader = "X-API-Key"

// Admission-reject reasons (the metric label vocabulary).
const (
	rejectUnauthorized = "unauthorized"
	rejectRateLimit    = "rate_limit"
	rejectBudget       = "budget"
)

// tenantCtxKey carries the resolved *tenant.Tenant through the request
// context.
type tenantCtxKey struct{}

// tenantFrom returns the request's authenticated tenant, nil when tenancy is
// disabled.
func tenantFrom(ctx context.Context) *tenant.Tenant {
	t, _ := ctx.Value(tenantCtxKey{}).(*tenant.Tenant)
	return t
}

// requestKey extracts the API key from a request: X-API-Key wins, then
// Authorization: Bearer.
func requestKey(r *http.Request) string {
	if k := r.Header.Get(apiKeyHeader); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return key
		}
	}
	return ""
}

// authExempt reports whether a path stays open without any credential on a
// tenant-enabled server: only health, which carries aggregate counts and no
// tenant data, so load balancers and probes need no identity.
func authExempt(path string) bool {
	return path == "/v1/healthz"
}

// operatorPath reports whether a path is an operator surface: metrics, the
// stats snapshot and profiling. On a tenant-enabled server these require the
// tenants file's operator_token — the metrics registry exports per-tenant
// labels (ε spends keyed by tenant and graph content address), so they must
// not be open to the world, and tenant keys must not open them either
// (tenant A would read tenant B's spends). Without a configured token they
// fail closed.
func operatorPath(path string) bool {
	switch path {
	case "/metrics", "/v1/stats":
		return true
	}
	return strings.HasPrefix(path, "/debug/pprof/")
}

// authenticate wraps the mux with tenant resolution and rate limiting. With
// tenancy disabled it returns next unchanged — zero overhead, identical
// behaviour to the pre-tenancy server.
func (s *Server) authenticate(next http.Handler) http.Handler {
	if s.cfg.Tenants == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if authExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if operatorPath(r.URL.Path) {
			if !s.cfg.Tenants.Operator(requestKey(r)) {
				s.admissionRejects.With(rejectUnauthorized).Inc()
				writeError(w, http.StatusUnauthorized,
					"operator endpoints require the operator token on a tenant-enabled server (set operator_token in the tenants file)")
				return
			}
			next.ServeHTTP(w, r)
			return
		}
		t, ok := s.cfg.Tenants.Resolve(requestKey(r))
		if !ok {
			s.admissionRejects.With(rejectUnauthorized).Inc()
			writeError(w, http.StatusUnauthorized, "missing or unknown API key (set %s)", apiKeyHeader)
			return
		}
		if !s.cfg.Tenants.Allow(t.ID) {
			s.admissionRejects.With(rejectRateLimit).Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "tenant %s over its request rate limit", t.ID)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t)))
	})
}

// budgetErrorBody is the 403 response for a refused DP fit: the uniform
// error string plus machine-readable budget arithmetic, so a client can see
// exactly how much ε it has left for the graph without a second call.
type budgetErrorBody struct {
	Error            string  `json:"error"`
	Tenant           string  `json:"tenant"`
	Graph            string  `json:"graph"`
	RequestedEpsilon float64 `json:"requested_epsilon"`
	RemainingEpsilon float64 `json:"remaining_epsilon"`
	BudgetEpsilon    float64 `json:"budget_epsilon"`
}

// fitLedgerGraphID resolves the ledger key for a fit's source graph: the
// stored graph's ID when fitting by reference, otherwise the content address
// the resolved graph would be stored under. Content addressing means
// re-uploading the same sensitive graph (or inlining it) cannot mint a fresh
// budget account.
func fitLedgerGraphID(req *fitRequest, g *graph.Graph) (string, error) {
	if req.GraphID != "" {
		return req.GraphID, nil
	}
	return graphstore.GraphID(g)
}

// admitFit charges the authenticated tenant's ε-ledger for a DP fit before
// it runs. It reports whether the fit may proceed (writing the refusal
// response itself otherwise) and returns a refund callback to invoke if the
// admitted fit ends without ever producing a model — the one case
// differential privacy allows the charge back. Non-private fits (ε = 0) and
// tenancy-disabled servers admit freely with a no-op refund.
func (s *Server) admitFit(w http.ResponseWriter, r *http.Request, req *fitRequest, g *graph.Graph) (refund func(), ok bool) {
	noop := func() {}
	if s.cfg.Tenants == nil || req.Epsilon <= 0 {
		return noop, true
	}
	t := tenantFrom(r.Context())
	if t == nil {
		// Cannot happen behind the authenticate middleware; refuse closed if
		// a future route bypasses it.
		s.admissionRejects.With(rejectUnauthorized).Inc()
		writeError(w, http.StatusUnauthorized, "no authenticated tenant")
		return nil, false
	}
	graphID, err := fitLedgerGraphID(req, g)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "computing graph content address: %v", err)
		return nil, false
	}
	remaining, err := s.cfg.Tenants.Charge(t, graphID, req.Epsilon)
	if err != nil {
		var be *tenant.BudgetError
		if errors.As(err, &be) {
			s.admissionRejects.With(rejectBudget).Inc()
			writeJSON(w, http.StatusForbidden, budgetErrorBody{
				Error: fmt.Sprintf("privacy budget exceeded: requested ε=%v with ε=%v remaining for graph %s",
					req.Epsilon, be.Remaining, graphID),
				Tenant: t.ID, Graph: graphID,
				RequestedEpsilon: req.Epsilon,
				RemainingEpsilon: be.Remaining,
				BudgetEpsilon:    be.Budget,
			})
			return nil, false
		}
		// A charge that could not be durably recorded must not admit the fit.
		writeError(w, http.StatusInternalServerError, "recording privacy spend: %v", err)
		return nil, false
	}
	s.logger.Info("privacy budget charged",
		"tenant", t.ID, "graph", graphID, "epsilon", req.Epsilon, "remaining", remaining)
	tenantID := t.ID
	return func() {
		if err := s.cfg.Tenants.Refund(tenantID, graphID, req.Epsilon); err != nil {
			s.logger.Error("privacy budget refund failed",
				"tenant", tenantID, "graph", graphID, "epsilon", req.Epsilon, "error", err)
		}
	}, true
}

// onFitDone adapts a refund callback to the jobs layer's terminal hook: the
// charge stands when the fit registered a model (even a cancelled fit that
// got that far — its release is real) and comes back otherwise. A registered
// model is additionally recorded as owned by the submitting tenant, so the
// tenant that paid the ε can actually reach the model it bought.
func (s *Server) onFitDone(r *http.Request, refund func()) func(string) {
	tenantID := ""
	if t := tenantFrom(r.Context()); t != nil {
		tenantID = t.ID
	}
	return func(modelID string) {
		if modelID == "" {
			refund()
			return
		}
		s.grantResource(tenantID, tenant.ResourceModel, modelID)
	}
}

// grantResource records tenantID as an owner of resource (kind, id) when
// tenancy is enabled; a no-op otherwise. Grant failures (a full disk under
// the ownership log) are logged, not fatal: the resource exists either way,
// the tenant just cannot see it until an operator reconciles — failing
// closed, like every other scoping decision.
func (s *Server) grantResource(tenantID, kind, id string) {
	if s.cfg.Tenants == nil || tenantID == "" || id == "" {
		return
	}
	if err := s.cfg.Tenants.Grant(kind, id, tenantID); err != nil {
		s.logger.Error("recording resource ownership failed",
			"tenant", tenantID, "kind", kind, "id", id, "error", err)
	}
}

// grantFor is grantResource keyed off the request's authenticated tenant.
func (s *Server) grantFor(r *http.Request, kind, id string) {
	if t := tenantFrom(r.Context()); t != nil {
		s.grantResource(t.ID, kind, id)
	}
}

// canAccess reports whether the request may touch resource (kind, id): with
// tenancy disabled everything is reachable, with it only resources the
// authenticated tenant owns. Handlers answer 404 on false, so another
// tenant's resource is indistinguishable from a missing one.
func (s *Server) canAccess(r *http.Request, kind, id string) bool {
	if s.cfg.Tenants == nil {
		return true
	}
	t := tenantFrom(r.Context())
	return t != nil && s.cfg.Tenants.Owns(kind, id, t.ID)
}

// releaseResource drops the tenant's handle on resource (kind, id),
// reporting whether the underlying shared resource should be evicted: with
// tenancy disabled always (the caller is the only trust domain), with it
// only when the last owner's handle is gone — content addressing means
// another tenant may hold the same bytes.
func (s *Server) releaseResource(r *http.Request, kind, id string) (evict bool) {
	if s.cfg.Tenants == nil {
		return true
	}
	t := tenantFrom(r.Context())
	if t == nil {
		return false
	}
	last, err := s.cfg.Tenants.RevokeOwner(kind, id, t.ID)
	if err != nil {
		s.logger.Error("recording resource revoke failed",
			"tenant", t.ID, "kind", kind, "id", id, "error", err)
	}
	return last
}
