package server_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestChaosFaultsEndpoint exercises the HTTP fault seam end-to-end:
// arming FailPuts turns POST /vbs into the 500 "cannot persist vbs"
// path (the signal a cluster gateway fails over on), clearing it
// restores service, and /metrics reports the write error.
func TestChaosFaultsEndpoint(t *testing.T) {
	ctx := context.Background()
	cl, _ := newTestDaemon(t, 1, 16, server.Options{
		DataDir:     t.TempDir(),
		EnableChaos: true,
	})
	data, err := makeVBS(47, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.SetFaults(ctx, server.ChaosFaults{FailPuts: true}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	_, err = cl.PutVBS(ctx, data, false)
	if err == nil {
		t.Fatal("PutVBS succeeded with FailPuts armed")
	}
	if server.StatusCode(err) != 500 || !strings.Contains(server.ErrorMessage(err), "cannot persist") {
		t.Fatalf("PutVBS error = %v, want 500 cannot persist", err)
	}

	if err := cl.SetFaults(ctx, server.ChaosFaults{}); err != nil {
		t.Fatalf("clear SetFaults: %v", err)
	}
	put, err := cl.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatalf("PutVBS after clearing: %v", err)
	}
	if ok, err := cl.HasVBS(ctx, put.Digest); err != nil || !ok {
		t.Fatalf("HasVBS(%s) = %v, %v, want true", put.Digest, ok, err)
	}
	if ok, err := cl.HasVBS(ctx, strings.Repeat("ab", 32)); err != nil || ok {
		t.Fatalf("HasVBS(absent) = %v, %v, want false, nil", ok, err)
	}

	if n := scrape(t, cl)("vbs_repo_write_errors_total"); n != 1 {
		t.Fatalf("repo write errors = %v, want 1", n)
	}
}

// TestChaosFaultsDisabled: without EnableChaos the endpoints must not
// exist, and without a data dir they must refuse with 409.
func TestChaosFaultsDisabled(t *testing.T) {
	ctx := context.Background()
	cl, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: t.TempDir()})
	err := cl.SetFaults(ctx, server.ChaosFaults{FailPuts: true})
	if server.StatusCode(err) != 404 {
		t.Fatalf("SetFaults without EnableChaos: %v, want 404", err)
	}

	cl2, _ := newTestDaemon(t, 1, 16, server.Options{EnableChaos: true})
	err = cl2.SetFaults(ctx, server.ChaosFaults{FailPuts: true})
	if server.StatusCode(err) != 409 {
		t.Fatalf("SetFaults without data dir: %v, want 409", err)
	}
}
