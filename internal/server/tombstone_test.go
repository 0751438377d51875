package server_test

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/repo"
	"repro/internal/server"
)

// TestTombstoneHTTPSemantics pins the node-side delete-tombstone
// contract the cluster layer builds on: DELETE tombstones, a plain
// re-put is refused with 410 Gone, GET/HEAD answer 410 (not 404, which
// would invite read-repair), force lifts the tombstone, and ?trim=1
// deletes without leaving one.
func TestTombstoneHTTPSemantics(t *testing.T) {
	c, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: t.TempDir()})
	ctx := t.Context()
	data, err := makeVBS(1, 6, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}

	put, err := c.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVBS(ctx, put.Digest); err != nil {
		t.Fatalf("DeleteVBS: %v", err)
	}

	// Automated re-replication must be refused while the tombstone
	// lives.
	if _, err := c.PutVBS(ctx, data, false); server.StatusCode(err) != http.StatusGone {
		t.Fatalf("re-put of deleted digest: err = %v, want 410", err)
	}
	if _, err := c.GetVBS(ctx, put.Digest); server.StatusCode(err) != http.StatusGone {
		t.Fatalf("GET of deleted digest: err = %v, want 410", err)
	}
	if _, err := c.HasVBS(ctx, put.Digest); server.StatusCode(err) != http.StatusGone {
		t.Fatalf("HEAD of deleted digest: err = %v, want 410", err)
	}
	ts, err := c.Tombstones(ctx)
	if err != nil || len(ts) != 1 || ts[0].Digest != put.Digest {
		t.Fatalf("Tombstones = %+v, %v; want one entry for %s", ts, err, put.Digest[:12])
	}
	if n := scrape(t, c)("vbs_repo_tombstones"); n != 1 {
		t.Fatalf("repo tombstones = %v, want 1", n)
	}

	// Deleting an absent digest still records a tombstone: a gateway
	// fans deletes out to non-holders so in-flight rebalance copies
	// land refused.
	other, err := makeVBS(2, 6, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVBS(ctx, repo.DigestOf(other).String()); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("DELETE of absent digest: err = %v, want 404", err)
	}
	if _, err := c.PutVBS(ctx, other, false); server.StatusCode(err) != http.StatusGone {
		t.Fatalf("put after absent-delete: err = %v, want 410", err)
	}

	// An explicit user write lifts the tombstone.
	if _, err := c.PutVBS(ctx, data, true); err != nil {
		t.Fatalf("forced re-put: %v", err)
	}
	if got, err := c.GetVBS(ctx, put.Digest); err != nil || len(got) != len(data) {
		t.Fatalf("GET after forced re-put: %d bytes, %v", len(got), err)
	}

	// ?trim=1 is a physical trim: the digest stays storable.
	if err := c.TrimVBS(ctx, put.Digest); err != nil {
		t.Fatalf("TrimVBS: %v", err)
	}
	if _, err := c.GetVBS(ctx, put.Digest); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("GET after trim: err = %v, want 404", err)
	}
	if _, err := c.PutVBS(ctx, data, false); err != nil {
		t.Fatalf("re-put after trim: %v", err)
	}
}

// TestLoadClearsTombstone pins that POST /tasks — explicit user
// intent to run these bytes — overrides an earlier delete.
func TestLoadClearsTombstone(t *testing.T) {
	c, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: t.TempDir()})
	ctx := t.Context()
	data, err := makeVBS(3, 6, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	put, err := c.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVBS(ctx, put.Digest); err != nil {
		t.Fatal(err)
	}
	res, err := c.Load(ctx, data, server.LoadRequest{})
	if err != nil {
		t.Fatalf("load of tombstoned digest: %v", err)
	}
	if res.Digest != put.Digest {
		t.Fatalf("load digest %s, want %s", res.Digest, put.Digest)
	}
	if ts, _ := c.Tombstones(ctx); len(ts) != 0 {
		t.Fatalf("tombstone survived a load: %+v", ts)
	}
}

// TestTombstoneSweepReclaimsExpired: the tombstone-sweep job leaves a
// live tombstone alone, and once the TTL has passed it reclaims the
// record (its file under the data dir) and the digest is storable by
// an automated, non-forced put again.
func TestTombstoneSweepReclaimsExpired(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: dir, TombstoneTTL: time.Second})
	ctx := t.Context()
	data, err := makeVBS(4, 6, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	put, err := c.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVBS(ctx, put.Digest); err != nil {
		t.Fatal(err)
	}
	records := func() int {
		t.Helper()
		ents, err := os.ReadDir(filepath.Join(dir, "tombstones"))
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	sweep := func() int64 {
		t.Helper()
		j, err := c.StartJob(ctx, "tombstone-sweep", nil)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, c, j.ID)
		if done.Status != jobs.StatusDone {
			t.Fatalf("sweep = %+v, want done", done)
		}
		return done.Progress["swept"]
	}
	if n := sweep(); n != 0 || records() != 1 {
		t.Fatalf("sweep inside the TTL reclaimed %d, %d record(s) left; want 0 and 1", n, records())
	}
	deadline := time.Now().Add(5 * time.Second)
	for sweep() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired tombstone never swept")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if n := records(); n != 0 {
		t.Fatalf("%d tombstone record(s) left after the sweep", n)
	}
	if _, err := c.PutVBS(ctx, data, false); err != nil {
		t.Fatalf("non-forced put after expiry: %v", err)
	}
}
