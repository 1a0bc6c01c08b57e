package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestOwnersGrantRevokeLastHandle(t *testing.T) {
	o, err := OpenOwners("")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if o.Owns(ResourceGraph, "g1", "alpha") {
		t.Fatal("fresh store owns something")
	}
	if err := o.Grant(ResourceGraph, "g1", "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceGraph, "g1", "beta"); err != nil {
		t.Fatal(err)
	}
	// Re-granting a held handle is a no-op, not a double handle.
	if err := o.Grant(ResourceGraph, "g1", "alpha"); err != nil {
		t.Fatal(err)
	}
	if !o.Owns(ResourceGraph, "g1", "alpha") || !o.Owns(ResourceGraph, "g1", "beta") {
		t.Fatal("granted handles not visible")
	}
	// Kinds are independent namespaces: a graph grant is not a model grant.
	if o.Owns(ResourceModel, "g1", "alpha") {
		t.Error("graph grant leaked into the model namespace")
	}

	// Dropping the first handle is not the last; dropping the second is.
	last, err := o.Revoke(ResourceGraph, "g1", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if last {
		t.Error("revoke with another handle outstanding reported last=true")
	}
	if o.Owns(ResourceGraph, "g1", "alpha") {
		t.Error("revoked handle still visible")
	}
	// Revoking a handle the tenant does not hold is a no-op.
	if last, err := o.Revoke(ResourceGraph, "g1", "alpha"); err != nil || last {
		t.Errorf("double revoke = (%v, %v), want (false, nil)", last, err)
	}
	last, err = o.Revoke(ResourceGraph, "g1", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if !last {
		t.Error("revoking the final handle reported last=false")
	}
}

func TestOwnersRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o, err := OpenOwners(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceModel, "m1", "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceModel, "m1", "beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Revoke(ResourceModel, "m1", "beta"); err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceJob, "j1", "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenOwners(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ws := re.Warnings(); len(ws) != 0 {
		t.Fatalf("clean log replayed with warnings: %v", ws)
	}
	if !re.Owns(ResourceModel, "m1", "alpha") {
		t.Error("alpha's model handle lost across restart")
	}
	if re.Owns(ResourceModel, "m1", "beta") {
		t.Error("beta's revoked handle resurrected by restart")
	}
	if !re.Owns(ResourceJob, "j1", "alpha") {
		t.Error("job handle lost across restart")
	}
	// The replayed state keeps evolving: alpha's surviving handle is now the
	// last one.
	if last, err := re.Revoke(ResourceModel, "m1", "alpha"); err != nil || !last {
		t.Errorf("post-restart revoke of sole handle = (%v, %v), want (true, nil)", last, err)
	}
}

// TestOwnersCorruptLineRefusesOpen: a complete line in the middle of the
// ownership log that is not a valid entry could be a revoke, and skipping it
// would grant access again. The open must fail, name the file and line, and
// leave the file byte for byte as it was.
func TestOwnersCorruptLineRefusesOpen(t *testing.T) {
	const (
		grant  = `{"kind":"graph","id":"g1","tenant":"alpha","at":"2026-01-02T03:04:05Z"}`
		revoke = `{"kind":"graph","id":"g1","tenant":"alpha","revoke":true,"at":"2026-01-02T03:04:06Z"}`
		torn   = `{"kind":"graph","id":"g3","ten`
	)
	for _, tc := range []struct{ name, line string }{
		{"garbage", `not json`},
		{"half an entry", `{"kind":"graph","id":"g2","ten`},
		{"missing tenant", `{"kind":"graph","id":"g2"}`},
		{"missing id", `{"kind":"graph","tenant":"alpha"}`},
		{"missing kind", `{"id":"g2","tenant":"alpha"}`},
		{"null", `null`},
		{"damaged revoke flag", `{"kind":"graph","id":"g1","tenant":"alpha","revoke":"yes"}`},
		{"damaged revoke key", `{"kind":"graph","id":"g1","tenant":"alpha","revoje":true}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, ownersFile)
			data := []byte(grant + "\n" + tc.line + "\n" + revoke + "\n" + torn)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			o, err := OpenOwners(dir)
			if err == nil {
				o.Close()
				t.Fatalf("OpenOwners accepted a corrupt line; Owns(g1, alpha) = %v", o.Owns(ResourceGraph, "g1", "alpha"))
			}
			if !strings.Contains(err.Error(), ownersFile+":2:") {
				t.Errorf("error %q does not name %s:2", err, ownersFile)
			}
			if after, _ := os.ReadFile(path); string(after) != string(data) {
				t.Errorf("owners log changed by a refused open:\n%q\nwant\n%q", after, data)
			}
		})
	}
}

// TestOwnersTornTailKeepsRevoke: after a crash leaves a torn final line, a
// revoke must land on a line of its own, or the next restart skips it and
// resurrects the handle.
func TestOwnersTornTailKeepsRevoke(t *testing.T) {
	dir := t.TempDir()
	o, err := OpenOwners(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceGraph, "g1", "alpha"); err != nil {
		t.Fatal(err)
	}
	o.Close()
	f, err := os.OpenFile(filepath.Join(dir, ownersFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"graph","id":"g2","ten`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenOwners(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ws := re.Warnings(); len(ws) != 1 {
		t.Errorf("warnings = %v, want 1 (torn line)", ws)
	}
	if last, err := re.Revoke(ResourceGraph, "g1", "alpha"); err != nil || !last {
		t.Fatalf("revoke = (%v, %v), want (true, nil)", last, err)
	}
	re.Close()

	again, err := OpenOwners(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Owns(ResourceGraph, "g1", "alpha") {
		t.Error("revoked handle resurrected after restart")
	}
	if ws := again.Warnings(); len(ws) != 0 {
		t.Errorf("warnings after restart = %v, want none", ws)
	}
}

func TestOwnersClosedRefusesGrants(t *testing.T) {
	o, err := OpenOwners(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Grant(ResourceGraph, "g1", "alpha"); err == nil {
		t.Error("grant after Close on a persistent store succeeded")
	}
	if _, err := o.Revoke(ResourceGraph, "g1", "alpha"); err != nil {
		t.Errorf("revoke of an unheld handle after Close = %v, want nil no-op", err)
	}
}

// TestBucketBackwardsClock pins the rate limiter's monotonic watermark: a
// clock that steps backwards (NTP correction) must not re-credit wall time
// that was already credited, or a tenant could mint tokens by the size of
// the step.
func TestBucketBackwardsClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newBucket(1, 10, t0)
	for i := 0; i < 10; i++ {
		if !b.allow(t0) {
			t.Fatalf("burst request %d refused", i)
		}
	}
	if b.allow(t0) {
		t.Fatal("drained bucket admitted a request")
	}
	// The clock steps back 100s. A limiter that rewound its watermark would
	// refill nothing now but re-credit those 100 seconds at the next forward
	// reading — the request after next would mint ~101 tokens.
	if b.allow(t0.Add(-100 * time.Second)) {
		t.Fatal("drained bucket admitted a request on a backwards clock step")
	}
	// One second of real progress refills exactly one token: the first call
	// is admitted, the second refused. Under the rewound-watermark bug the
	// second call would be admitted too.
	t1 := t0.Add(1 * time.Second)
	if !b.allow(t1) {
		t.Fatal("one elapsed second refilled no token")
	}
	if b.allow(t1) {
		t.Fatal("one elapsed second refilled more than one token (backwards step re-credited wall time)")
	}
}
