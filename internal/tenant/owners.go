package tenant

// Resource ownership: which tenant may see which graph, model or job. The
// stores underneath the service are content-addressed and shared — two
// tenants uploading the same graph get the same ID — so ownership is a set
// of tenants per resource, not a single owner: each tenant holds its own
// handle on the shared bytes, a revoke drops only that handle, and the
// serving layer evicts the underlying resource only when the last handle is
// gone.
//
// Like the ε-ledger, ownership persists as append-only JSONL
// (Dir/owners.jsonl): grants and revokes each append one synced line, and
// the file is replayed on startup so a restarted service still knows who may
// touch what. A complete line that does not parse into an entry fails the
// open, because skipping a damaged revoke would grant access again. A torn
// final line is dropped, reported via Warnings, and cut from the file before
// the next append, so a later revoke is never glued onto it and lost.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ownersFile is the append-only grant/revoke log inside the tenant directory.
const ownersFile = "owners.jsonl"

// Resource kinds for ownership records. The serving layer scopes exactly the
// three resource collections it exposes.
const (
	ResourceGraph = "graph"
	ResourceModel = "model"
	ResourceJob   = "job"
)

// ownerEntry is one JSONL line of the ownership log.
type ownerEntry struct {
	Kind   string    `json:"kind"`
	ID     string    `json:"id"`
	Tenant string    `json:"tenant"`
	Revoke bool      `json:"revoke,omitempty"`
	At     time.Time `json:"at"`
}

// resourceKey identifies one resource across kinds.
type resourceKey struct{ kind, id string }

// Owners tracks which tenants hold a handle on which resources, optionally
// persisted as append-only JSONL. Safe for concurrent use.
type Owners struct {
	mu       sync.Mutex
	log      *appendLog // nil when in-memory
	owners   map[resourceKey]map[string]bool
	warnings []string
	clock    func() time.Time
}

// OpenOwners opens (or creates) the ownership log under dir; an empty dir
// keeps ownership in memory only. Existing entries are replayed. A complete
// line that is not a valid entry fails the open with an error naming its
// file:line, leaving the file as it was; a torn final line is dropped and
// reported via Warnings.
func OpenOwners(dir string) (*Owners, error) {
	o := &Owners{owners: make(map[resourceKey]map[string]bool), clock: time.Now}
	if dir == "" {
		return o, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating owners directory: %w", err)
	}
	log, torn, err := openLog(filepath.Join(dir, ownersFile), o.replay)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening owners log: %w", err)
	}
	if torn != "" {
		o.warnings = append(o.warnings, torn)
	}
	o.log = log
	return o, nil
}

// replay folds one persisted grant or revoke entry into the in-memory sets.
func (o *Owners) replay(line []byte) error {
	var e ownerEntry
	if err := decodeEntry(line, &e); err != nil {
		return err
	}
	if e.Kind == "" || e.ID == "" || e.Tenant == "" {
		return errors.New("entry missing kind, id or tenant")
	}
	o.applyLocked(e)
	return nil
}

// applyLocked folds one entry into the in-memory sets. Callers hold o.mu (or
// run before the store is shared).
func (o *Owners) applyLocked(e ownerEntry) {
	k := resourceKey{e.Kind, e.ID}
	set := o.owners[k]
	if e.Revoke {
		delete(set, e.Tenant)
		if len(set) == 0 {
			delete(o.owners, k)
		}
		return
	}
	if set == nil {
		set = make(map[string]bool, 1)
		o.owners[k] = set
	}
	set[e.Tenant] = true
}

// Warnings reports the torn final line dropped on load, if any: an append
// that never returned, so the grant or revoke it carried was never
// acknowledged.
func (o *Owners) Warnings() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.warnings...)
}

// Grant records that tenantID holds a handle on (kind, id), persisted before
// success. Granting an already-held handle is a no-op.
func (o *Owners) Grant(kind, id, tenantID string) error {
	if kind == "" || id == "" || tenantID == "" {
		return fmt.Errorf("tenant: grant with empty kind, id or tenant")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	k := resourceKey{kind, id}
	if o.owners[k][tenantID] {
		return nil
	}
	e := ownerEntry{Kind: kind, ID: id, Tenant: tenantID, At: o.clock()}
	if err := o.log.append(e); err != nil {
		return fmt.Errorf("tenant: persisting ownership grant: %w", err)
	}
	o.applyLocked(e)
	return nil
}

// Revoke drops tenantID's handle on (kind, id), reporting whether that was
// the last handle (so the caller may evict the shared resource underneath).
// Revoking a handle the tenant does not hold is a no-op with last == false.
func (o *Owners) Revoke(kind, id, tenantID string) (last bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := resourceKey{kind, id}
	if !o.owners[k][tenantID] {
		return false, nil
	}
	e := ownerEntry{Kind: kind, ID: id, Tenant: tenantID, Revoke: true, At: o.clock()}
	if err := o.log.append(e); err != nil {
		return false, fmt.Errorf("tenant: persisting ownership revoke: %w", err)
	}
	o.applyLocked(e)
	return o.owners[k] == nil, nil
}

// Owns reports whether tenantID holds a handle on (kind, id).
func (o *Owners) Owns(kind, id, tenantID string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.owners[resourceKey{kind, id}][tenantID]
}

// Close releases the append handle. Grants and revokes against a persistent
// store fail after Close; in-memory stores keep working.
func (o *Owners) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.log.close()
}
