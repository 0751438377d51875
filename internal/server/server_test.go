package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/server"
)

func TestLoadUnloadRelocate(t *testing.T) {
	cl, _ := newTestDaemon(t, 2, 16, server.Options{})
	v := makeVBS(1, 12, 4, 8, 1)
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}

	res, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first load reported cached")
	}
	if res.TaskW != v.TaskW || res.TaskH != v.TaskH {
		t.Errorf("task dims %dx%d", res.TaskW, res.TaskH)
	}
	if res.CompressionRatio <= 0 || res.CompressionRatio >= 1.5 {
		t.Errorf("compression ratio %v", res.CompressionRatio)
	}

	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != res.ID {
		t.Fatalf("tasks = %+v", tasks)
	}

	// Relocate within the fabric.
	moved, err := cl.Relocate(t.Context(), res.ID, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moved.X != 8 || moved.Y != 8 {
		t.Errorf("relocated to (%d,%d)", moved.X, moved.Y)
	}

	if err := cl.Unload(t.Context(), res.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unload(t.Context(), res.ID); err == nil {
		t.Error("double unload accepted")
	} else if !strings.Contains(err.Error(), "404") {
		t.Errorf("double unload error = %v", err)
	}

	if n := scrape(t, cl)("vbs_server_tasks"); n != 0 {
		t.Errorf("tasks = %v after unload", n)
	}
	if sum := fabricTotals(t, cl); sum.Loads != 1 || sum.Unloads != 1 || sum.Relocations != 1 {
		t.Errorf("fabric totals = %+v", sum)
	}
}

// TestRepeatedLoadHitsCache is the acceptance scenario: a second load
// of the same container must come from the decoded-bitstream cache,
// observable through /metrics.
func TestRepeatedLoadHitsCache(t *testing.T) {
	cl, _ := newTestDaemon(t, 2, 16, server.Options{})
	data, err := makeVBS(2, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}

	first, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first load cached")
	}
	if !second.Cached {
		t.Error("second load missed the decoded-bitstream cache")
	}
	if first.Digest != second.Digest {
		t.Error("content addressing returned different digests")
	}

	m := scrape(t, cl)
	if n := m("vbs_decode_total"); n != 1 {
		t.Errorf("decodes = %v, want 1 (second load must skip decode)", n)
	}
	if hits, misses := m("vbs_cache_hits_total"), m("vbs_cache_misses_total"); hits < 1 || misses != 1 {
		t.Errorf("cache hits=%v misses=%v", hits, misses)
	}
	if n := m("vbs_store_entries"); n != 1 {
		t.Errorf("store entries = %v, want 1 (identical containers deduplicate)", n)
	}
	if n, sum := m("vbs_server_op_duration_seconds_count", "op", "load"),
		m("vbs_server_op_duration_seconds_sum", "op", "load"); n != 2 || sum <= 0 {
		t.Errorf("load latency count = %v, sum = %vs", n, sum)
	}
}

// TestConcurrentClients hammers the daemon from many goroutines over
// two fabrics; run with -race. Every client loads, relocates and
// unloads repeatedly; at the end the pool must be empty and the
// counters consistent.
func TestConcurrentClients(t *testing.T) {
	cl, _ := newTestDaemon(t, 2, 24, server.Options{})
	// Three distinct tasks shared by eight clients: plenty of cache
	// hits and digest collisions by design.
	containers := make([][]byte, 3)
	for i := range containers {
		data, err := makeVBS(int64(10+i), 8, 4, 8, 1).Encode()
		if err != nil {
			t.Fatal(err)
		}
		containers[i] = data
	}

	const clients = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters)
	wg.Add(clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := cl.Load(t.Context(), containers[(g+i)%len(containers)], server.LoadRequest{})
				if err != nil {
					// The pool can be momentarily full; that is a
					// well-formed 409, not a failure.
					if strings.Contains(err.Error(), "409") {
						continue
					}
					errs <- fmt.Errorf("client %d load: %w", g, err)
					return
				}
				if i%2 == 0 {
					// Best-effort relocation; contention may refuse it.
					_, _ = cl.Relocate(t.Context(), res.ID, (g*3)%16, (i*5)%16)
				}
				if err := cl.Unload(t.Context(), res.ID); err != nil {
					errs <- fmt.Errorf("client %d unload: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := scrape(t, cl)
	if n := m("vbs_server_tasks"); n != 0 {
		t.Errorf("tasks = %v after all unloads", n)
	}
	if sum := fabricTotals(t, cl); sum.Loads != sum.Unloads {
		t.Errorf("loads %d != unloads %d", sum.Loads, sum.Unloads)
	}
	if n := m("vbs_store_entries"); n != float64(len(containers)) {
		t.Errorf("store entries = %v", n)
	}
	// Decodes must not exceed distinct containers: everything else is
	// cache or singleflight.
	if n := m("vbs_decode_total"); n > float64(len(containers)) {
		t.Errorf("decodes = %v, want <= %d", n, len(containers))
	}
	fabs, err := cl.Fabrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fabs {
		if f.FreeMacros != f.TotalMacros {
			t.Errorf("fabric %d not empty: %d/%d free", f.Index, f.FreeMacros, f.TotalMacros)
		}
	}
}

func TestFabricPinningAndPlacement(t *testing.T) {
	cl, _ := newTestDaemon(t, 2, 16, server.Options{})
	data, err := makeVBS(3, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	one := 1
	x, y := 4, 4
	res, err := cl.Load(t.Context(), data, server.LoadRequest{Fabric: &one, X: &x, Y: &y})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fabric != 1 || res.X != 4 || res.Y != 4 {
		t.Errorf("placed at fabric %d (%d,%d)", res.Fabric, res.X, res.Y)
	}
	fabs, err := cl.Fabrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(fabs) != 2 {
		t.Fatalf("fabrics = %d", len(fabs))
	}
	if fabs[1].Occupancy <= 0 || fabs[0].Occupancy != 0 {
		t.Errorf("occupancy = %v / %v", fabs[0].Occupancy, fabs[1].Occupancy)
	}
	// The same position on the same fabric is now taken.
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{Fabric: &one, X: &x, Y: &y}); err == nil {
		t.Error("overlapping pinned load accepted")
	}
	// Auto-placement must prefer the emptier fabric 0.
	auto, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Fabric != 0 {
		t.Errorf("auto placement chose fabric %d, want the emptier 0", auto.Fabric)
	}
}

func TestBadRequests(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})
	check := func(err error, code string, what string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted", what)
		} else if !strings.Contains(err.Error(), code) {
			t.Errorf("%s: error %v, want %s", what, err, code)
		}
	}
	_, err := cl.Load(t.Context(), []byte("garbage container"), server.LoadRequest{})
	check(err, "400", "malformed container")
	check(func() error { _, err := cl.Load(t.Context(), nil, server.LoadRequest{}); return err }(),
		"400", "empty container")

	badFabric := 7
	data, errEnc := makeVBS(4, 8, 4, 8, 1).Encode()
	if errEnc != nil {
		t.Fatal(errEnc)
	}
	_, err = cl.Load(t.Context(), data, server.LoadRequest{Fabric: &badFabric})
	check(err, "400", "out-of-range fabric")

	_, err = cl.Relocate(t.Context(), 99, 0, 0)
	check(err, "404", "relocating unknown task")

	x := 3
	_, err = cl.Load(t.Context(), data, server.LoadRequest{X: &x})
	check(err, "400", "x without y")
}

// TestMaxBodyBytes: a JSON body one byte past DefaultMaxBodyBytes
// must be rejected with 413 before being buffered — the seed accepted
// unbounded POST /tasks bodies. The body is generated as it streams.
func TestMaxBodyBytes(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})

	resp, err := http.Post(cl.Base()+"/tasks", "application/json", oversizedLoadBody())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// A body under the bound still works end to end.
	data, err := makeVBS(5, 8, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{}); err != nil {
		t.Fatalf("in-bound load: %v", err)
	}
}

// oversizedLoadBody streams a POST /tasks body exactly one byte past
// DefaultMaxBodyBytes without holding it in memory.
func oversizedLoadBody() io.Reader {
	head, tail := `{"vbs":"`, `"}`
	fill := server.DefaultMaxBodyBytes + 1 - int64(len(head)+len(tail))
	return io.MultiReader(strings.NewReader(head), io.LimitReader(fillReader('A'), fill), strings.NewReader(tail))
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestDecodesCountedOnTheNode: a cold load decodes once, and that count
// lives on the node. Fabrics never decode — the server does, through
// its cache — so no fabric row on /fabrics carries a decodes field
// (they used to report a constant 0).
func TestDecodesCountedOnTheNode(t *testing.T) {
	cl, _ := newTestDaemon(t, 2, 16, server.Options{})
	data, err := makeVBS(3, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{}); err != nil {
		t.Fatal(err)
	}
	if n := scrape(t, cl)("vbs_decode_total"); n != 1 {
		t.Errorf("node decodes = %v after one cold load, want 1", n)
	}
	resp, err := http.Get(cl.Base() + "/fabrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fabs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&fabs); err != nil {
		t.Fatal(err)
	}
	if len(fabs) != 2 {
		t.Fatalf("/fabrics lists %d rows, want 2", len(fabs))
	}
	for _, f := range fabs {
		for _, key := range []string{"decodes", "decode_ns"} {
			if v, ok := f[key]; ok {
				t.Errorf("fabric %v carries %s = %v", f["index"], key, v)
			}
		}
	}
}

// TestPutVBSAdmitsWithoutPlacement: POST /vbs stores a blob without
// consuming any fabric area, deduplicates, and serves it back
// byte-identical — the gateway's replication primitive.
func TestPutVBSAdmitsWithoutPlacement(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})
	data, err := makeVBS(6, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	res, err := cl.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Existed || res.Bytes != len(data) {
		t.Errorf("first put = %+v", res)
	}
	if again, err := cl.PutVBS(ctx, data, false); err != nil || !again.Existed {
		t.Errorf("second put = %+v, %v", again, err)
	}

	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("put placed %d task(s)", len(tasks))
	}
	got, err := cl.GetVBS(t.Context(), res.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("stored blob differs from submitted bytes")
	}

	if _, err := cl.PutVBS(ctx, []byte("garbage"), false); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("malformed put error = %v, want 400", err)
	}
}

// TestUnloadControllerFailure: a controller-refused unload must be
// surfaced as an error, and afterwards the API task list must still
// match fabric occupancy exactly — the seed deleted the entry before
// asking the controller, so an error orphaned whatever the task still
// owned; conversely the entry must not be resurrected once the region
// is genuinely free, or the phantom could never be deleted again.
func TestUnloadControllerFailure(t *testing.T) {
	ctrls := newPool(1, 16)
	srv, err := server.New(ctrls, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl := server.NewClient(hs.URL, hs.Client())

	data, err := makeVBS(1, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: unload the fabric-level task behind the daemon's back,
	// so the daemon's own unload will fail at the controller.
	fid := ctrls[res.Fabric].Fabric().OwnerAt(res.X, res.Y)
	if err := ctrls[res.Fabric].Unload(fid); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unload(t.Context(), res.ID); err == nil {
		t.Fatal("unload reported success despite controller failure")
	} else if !strings.Contains(err.Error(), "500") {
		t.Fatalf("unload error = %v, want 500", err)
	}
	// The controller no longer held the task, so its region is free:
	// the entry must be gone (not resurrected into an undeletable
	// phantom) and the list must again match fabric occupancy.
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatalf("tasks after failed unload of a freed region = %+v, want none", tasks)
	}
	if used := ctrls[res.Fabric].Fabric().UsedMacros(); used != 0 {
		t.Fatalf("fabric owns %d macros with no task listed", used)
	}
	if err := cl.Unload(t.Context(), res.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("second unload error = %v, want 404", err)
	}
}

// TestRelocateRequiresCoordinates: an empty or partial body must be a
// 400, not a silent move to (0,0).
func TestRelocateRequiresCoordinates(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})
	data, err := makeVBS(1, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	x, y := 8, 8
	res, err := cl.Load(t.Context(), data, server.LoadRequest{X: &x, Y: &y})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{}`, `{"x": 0}`, `{"y": 0}`} {
		resp, err := http.Post(cl.Base()+fmt.Sprintf("/tasks/%d/relocate", res.ID),
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The task must not have moved.
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].X != 8 || tasks[0].Y != 8 {
		t.Errorf("task moved to (%d,%d) by rejected requests", tasks[0].X, tasks[0].Y)
	}
	// A complete body still works, including an explicit (0,0).
	if _, err := cl.Relocate(t.Context(), res.ID, 0, 0); err != nil {
		t.Fatalf("explicit relocate to origin: %v", err)
	}
}

// fragmentedDaemon builds a single 28x6 fabric holding three 6x6 tasks
// with sub-task-width gaps between them: total free space fits another
// 6x6 task but no contiguous slot does, so only compaction can admit
// it.
func fragmentedDaemon(t *testing.T) (*server.Client, *server.Server, []byte) {
	t.Helper()
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 28, Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New([]*controller.Controller{controller.New(f, 2)}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl := server.NewClient(hs.URL, hs.Client())

	y := 0
	for i, x := range []int{0, 9, 18} {
		data, err := makeVBS(int64(i+1), 12, 4, 8, 1).Encode()
		if err != nil {
			t.Fatal(err)
		}
		x := x
		if _, err := cl.Load(t.Context(), data, server.LoadRequest{X: &x, Y: &y}); err != nil {
			t.Fatalf("blocker at x=%d: %v", x, err)
		}
	}
	data, err := makeVBS(9, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv, data
}

// TestAutoCompactionRetry: a load that no fabric admits must trigger
// compaction and succeed on the retry, with the placement counters
// recording it.
func TestAutoCompactionRetry(t *testing.T) {
	cl, _, data := fragmentedDaemon(t)
	res, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatalf("load on fragmented fabric: %v", err)
	}
	if !res.Compacted {
		t.Error("load did not report the compaction retry")
	}
	m := scrape(t, cl)
	if n := m("vbs_compactions_total"); n != 1 {
		t.Errorf("compactions = %v, want 1", n)
	}
	if n := m("vbs_compaction_moved_total"); n == 0 {
		t.Error("tasks moved = 0 after a compaction that made room")
	}
	if n := m("vbs_load_retries_total"); n != 1 {
		t.Errorf("retry successes = %v, want 1", n)
	}
	if n := m("vbs_server_tasks"); n != 4 {
		t.Errorf("tasks = %v, want 4", n)
	}
}

// TestExplicitCompact: POST /fabrics/{i}/compact defragments on
// demand; out-of-range indices are 404.
func TestExplicitCompact(t *testing.T) {
	cl, _, data := fragmentedDaemon(t)
	res, err := cl.Compact(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fabric != 0 || res.Moved == 0 {
		t.Errorf("Compact = %+v, want fabric 0 with tasks moved", res)
	}
	// After explicit compaction the fragmented load fits first try.
	load, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatalf("load after explicit compact: %v", err)
	}
	if load.Compacted {
		t.Error("load needed a second compaction after an explicit one")
	}
	if _, err := cl.Compact(t.Context(), 7); err == nil {
		t.Error("out-of-range fabric index accepted")
	} else if !strings.Contains(err.Error(), "404") {
		t.Errorf("out-of-range compact error = %v, want 404", err)
	}
	m := scrape(t, cl)
	if c, r := m("vbs_compactions_total"), m("vbs_load_retries_total"); c != 1 || r != 0 {
		t.Errorf("compactions = %v, retry successes = %v, want 1, 0", c, r)
	}
}

// TestPolicySelection: the policy request field steers placement and
// unknown names are rejected; the server reports its default (vbsd
// logs it at boot).
func TestPolicySelection(t *testing.T) {
	cl, srv := newTestDaemon(t, 2, 16, server.Options{Policy: "first-fit"})
	if p := srv.Policy(); p != "first-fit" {
		t.Errorf("default policy = %q", p)
	}
	data, err := makeVBS(1, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{Policy: "no-such-policy"}); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "400") {
		t.Errorf("unknown policy error = %v, want 400", err)
	}
	// best-fit on an empty pool packs into a corner of fabric 0.
	res, err := cl.Load(t.Context(), data, server.LoadRequest{Policy: "best-fit"})
	if err != nil {
		t.Fatal(err)
	}
	if res.X != 0 || res.Y != 0 {
		t.Errorf("best-fit first task at (%d,%d), want the corner", res.X, res.Y)
	}
	// Unknown server-wide policy is a construction error.
	if _, err := server.New(newPool(1, 8), server.Options{Policy: "bogus"}); err == nil {
		t.Error("server accepted unknown default policy")
	}
}

// TestConcurrentDeleteRelocateLoad hammers one task id with DELETE and
// relocate storms while fresh loads of the same container race them;
// run under -race. Afterwards fabric occupancy must exactly match the
// listed tasks (no orphaned regions) and the deleted task must stay
// deleted (no resurrection).
func TestConcurrentDeleteRelocateLoad(t *testing.T) {
	ctrls := newPool(2, 16)
	srv, err := server.New(ctrls, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl := server.NewClient(hs.URL, hs.Client())

	data, err := makeVBS(1, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 3, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = cl.Unload(t.Context(), victim.ID) // first wins, the rest must 404
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, _ = cl.Relocate(t.Context(), victim.ID, (g*iters+i)%10, (g*iters+i)%10)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, _ = cl.Load(t.Context(), data, server.LoadRequest{}) // may 409 when full
			}
		}()
	}
	wg.Wait()

	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	areaOn := make(map[int]int)
	for _, ti := range tasks {
		if ti.ID == victim.ID {
			t.Errorf("deleted task %d resurrected", victim.ID)
		}
		areaOn[ti.Fabric] += ti.TaskW * ti.TaskH
	}
	for fi, c := range ctrls {
		if used := c.Fabric().UsedMacros(); used != areaOn[fi] {
			t.Errorf("fabric %d: %d macros owned, tasks account for %d (orphaned occupancy)",
				fi, used, areaOn[fi])
		}
	}
	// Full teardown: nothing may linger.
	for _, ti := range tasks {
		if err := cl.Unload(t.Context(), ti.ID); err != nil {
			t.Fatalf("cleanup unload %d: %v", ti.ID, err)
		}
	}
	for fi, c := range ctrls {
		if used := c.Fabric().UsedMacros(); used != 0 {
			t.Errorf("fabric %d: %d macros owned after full teardown", fi, used)
		}
	}
	if rest, _ := cl.Tasks(t.Context()); len(rest) != 0 {
		t.Errorf("tasks after teardown: %+v", rest)
	}
}

// TestNoCompactionOnStructuralFailure: a load that can never succeed
// (architecture mismatch) must not trigger the auto-compaction retry
// and physically shuffle tasks on a healthy fabric.
func TestNoCompactionOnStructuralFailure(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{}) // pool is W=8
	good, err := makeVBS(1, 12, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Load(t.Context(), good, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Same grid, wrong channel width: decodes fine, can never place.
	wrong, err := makeVBS(2, 12, 4, 10, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(t.Context(), wrong, server.LoadRequest{}); err == nil {
		t.Fatal("architecture-mismatched load accepted")
	} else if !strings.Contains(err.Error(), "409") {
		t.Fatalf("mismatch error = %v, want 409", err)
	}
	m := scrape(t, cl)
	if c, moved := m("vbs_compactions_total"), m("vbs_compaction_moved_total"); c != 0 || moved != 0 {
		t.Errorf("structural failure triggered compaction: %v run(s), %v moved", c, moved)
	}
	// The loaded task was not shuffled.
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].X != res.X || tasks[0].Y != res.Y {
		t.Errorf("tasks after refused load = %+v", tasks)
	}
}

// TestNoStatsEndpoint: /metrics is the daemon's one counter surface,
// so GET /stats is not routed.
func TestNoStatsEndpoint(t *testing.T) {
	cl, _ := newTestDaemon(t, 1, 16, server.Options{})
	stats, err := url.JoinPath(cl.Base(), "stats")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(stats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: status %d, want 404", resp.StatusCode)
	}
}
