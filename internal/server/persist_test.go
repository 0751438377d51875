package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/server"
)

// TestRestartRoundTrip is the headline durability check: blobs loaded
// into a daemon with a data dir survive an abrupt restart (no
// shutdown hook runs — write-through makes Put durable), are listed,
// digest-verified, and served from disk without re-upload.
func TestRestartRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	data, err := makeVBS(31, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a second daemon over the same directory. The first is
	// simply abandoned, exactly like a SIGKILL — nothing flushed.
	cl2, srv2 := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	if rep := srv2.RecoveryReport(); rep.Recovered != 1 || rep.Quarantined != 0 {
		t.Fatalf("recovery scan: %+v", rep)
	}
	blobs, err := cl2.ListVBS(t.Context())
	if err != nil || len(blobs) != 1 {
		t.Fatalf("ListVBS after restart: %v blobs, %v", len(blobs), err)
	}
	if blobs[0].Digest != resp.Digest || !blobs[0].Disk {
		t.Fatalf("listed blob: %+v", blobs[0])
	}
	got, err := cl2.GetVBS(t.Context(), resp.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("blob served after restart differs from the upload")
	}
	// Content addressing makes the check self-certifying.
	if sum := hex.EncodeToString(func() []byte { h := sha256.Sum256(got); return h[:] }()); sum != resp.Digest {
		t.Fatalf("served bytes hash to %s, digest says %s", sum, resp.Digest)
	}
	// And the decoded load path works from the disk tier too: loading
	// the same container again deduplicates against the recovered blob.
	if _, err := cl2.Load(t.Context(), data, server.LoadRequest{}); err != nil {
		t.Fatalf("load after restart: %v", err)
	}
	m := scrape(t, cl2)
	if blobs, recovered := m("vbs_repo_blobs"), m("vbs_repo_recovered_blobs"); blobs != 1 || recovered != 1 {
		t.Fatalf("repo after restart: %v blob(s), %v recovered, want 1, 1", blobs, recovered)
	}
}

// TestCorruptBlobQuarantinedAtScan flips bits in a stored blob and
// asserts the restarted daemon quarantines it, reports it in /metrics,
// and never serves it.
func TestCorruptBlobQuarantinedAtScan(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	data, err := makeVBS(32, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var blobPath string
	err = filepath.WalkDir(dataDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".vbs") {
			blobPath = path
		}
		return err
	})
	if err != nil || blobPath == "" {
		t.Fatalf("blob file not found under %s: %v", dataDir, err)
	}
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cl2, srv2 := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	if rep := srv2.RecoveryReport(); rep.Quarantined != 1 || rep.Recovered != 0 {
		t.Fatalf("recovery scan: %+v", rep)
	}
	if _, err := cl2.GetVBS(t.Context(), resp.Digest); err == nil {
		t.Fatal("corrupt blob was served")
	}
	m := scrape(t, cl2)
	if q, blobs := m("vbs_repo_quarantined_total"), m("vbs_repo_blobs"); q != 1 || blobs != 0 {
		t.Fatalf("repo: %v quarantined, %v blob(s), want 1, 0", q, blobs)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "quarantine", filepath.Base(blobPath))); err != nil {
		t.Fatalf("blob not moved to quarantine: %v", err)
	}
}

// TestEvictionFallsBackToDisk bounds the RAM store to one container
// and proves the acceptance criterion: eviction with a data dir loses
// no blob, and the fall-through returns identical bytes.
func TestEvictionFallsBackToDisk(t *testing.T) {
	a, err := makeVBS(33, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeVBS(34, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := newTestDaemon(t, 1, 24, server.Options{
		DataDir:    t.TempDir(),
		StoreBytes: len(a) + 1, // RAM holds one container at a time
	})
	ra, err := cl.Load(t.Context(), a, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), b, server.LoadRequest{}); err != nil { // evicts a from RAM
		t.Fatal(err)
	}
	if n := scrape(t, cl)("vbs_store_demotions_total"); n == 0 {
		t.Fatal("expected a demotion")
	}
	got, err := cl.GetVBS(t.Context(), ra.Digest)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("evicted blob not identical from disk: %v", err)
	}
	// Loading the evicted task again goes through the promotion path,
	// not a 4xx.
	if _, err := cl.Load(t.Context(), a, server.LoadRequest{}); err != nil {
		t.Fatalf("re-load of evicted blob: %v", err)
	}
}

func TestDeleteVBSRefusedWhileReferenced(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: t.TempDir()})
	data, err := makeVBS(35, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.DeleteVBS(t.Context(), resp.Digest)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("DeleteVBS with live task: %v", err)
	}
	if err := cl.Unload(t.Context(), resp.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteVBS(t.Context(), resp.Digest); err != nil {
		t.Fatalf("DeleteVBS after unload: %v", err)
	}
	if _, err := cl.GetVBS(t.Context(), resp.Digest); err == nil {
		t.Fatal("blob served after delete")
	}
	if err := cl.DeleteVBS(t.Context(), resp.Digest); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double DeleteVBS: %v", err)
	}
}

func TestVBSEndpointsWithoutDataDir(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})
	data, err := makeVBS(36, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := cl.ListVBS(t.Context())
	if err != nil || len(blobs) != 1 || !blobs[0].RAM || blobs[0].Disk {
		t.Fatalf("RAM-only ListVBS: %+v, %v", blobs, err)
	}
	if blobs[0].Tasks != 1 {
		t.Fatalf("reference count: %+v", blobs[0])
	}
	got, err := cl.GetVBS(t.Context(), resp.Digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("RAM-only GetVBS: %v", err)
	}
	samples, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics.Find(samples, "vbs_repo_blobs", nil); ok {
		t.Fatal("repo metrics exported without a data dir")
	}
	if err := cl.DeleteVBS(t.Context(), "zz-not-a-digest"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad digest: %v", err)
	}
}

// TestWarmDecodedStreamsFromDisk restarts a daemon over a populated
// data dir and asserts the warm job pre-fills the decoded cache: the
// first load afterwards is a cache hit.
func TestWarmDecodedStreamsFromDisk(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	data, err := makeVBS(37, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{}); err != nil {
		t.Fatal(err)
	}

	cl2, srv2 := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	j, err := srv2.Jobs().Start("warm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := j.Wait(t.Context()); err != nil || snap.Status != jobs.StatusDone || snap.Progress["warmed"] != 1 {
		t.Fatalf("warm job: %+v, err %v", snap, err)
	}
	resp, err := cl2.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("first load after warm-up missed the decoded cache")
	}
	// The decoded-cache counters are visible in /metrics and reflect
	// the traffic — one miss from the warm-up decode, at least one hit
	// from the load that followed.
	m := scrape(t, cl2)
	if entries, hits, misses := m("vbs_cache_entries"), m("vbs_cache_hits_total"), m("vbs_cache_misses_total"); entries != 1 || hits == 0 || misses == 0 {
		t.Fatalf("cache: %v entries, %v hits, %v misses", entries, hits, misses)
	}
}

// TestRestartMintsFreshIDs: a restarted daemon draws a new boot
// instance, so an id from the earlier boot answers 404 to unload and
// relocate instead of naming a task of the new boot.
func TestRestartMintsFreshIDs(t *testing.T) {
	dataDir := t.TempDir()
	cl, srv := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	data, err := makeVBS(32, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	old, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if server.InstanceOf(old.ID) != srv.Instance() || old.ID <= 0 {
		t.Fatalf("id %d does not carry the boot instance %d", old.ID, srv.Instance())
	}

	cl2, srv2 := newTestDaemon(t, 1, 16, server.Options{DataDir: dataDir})
	if srv2.Instance() == srv.Instance() {
		t.Fatalf("restart reused boot instance %d", srv.Instance())
	}
	if inst, err := cl2.Health(t.Context()); err != nil || inst != srv2.Instance() {
		t.Fatalf("healthz instance = %d, %v; want %d", inst, err, srv2.Instance())
	}
	fresh, err := cl2.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == old.ID {
		t.Fatalf("restarted daemon reissued id %d", old.ID)
	}
	if _, err := cl2.Relocate(t.Context(), old.ID, 8, 8); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("relocate of an earlier boot's id = %v, want 404", err)
	}
	if err := cl2.Unload(t.Context(), old.ID); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("unload of an earlier boot's id = %v, want 404", err)
	}
	tasks, err := cl2.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != fresh.ID || tasks[0].X != fresh.X || tasks[0].Y != fresh.Y {
		t.Fatalf("tasks after stale-id calls = %+v, want the new boot's task untouched at (%d,%d)", tasks, fresh.X, fresh.Y)
	}
}
