package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro/internal/metrics"
	"repro/internal/server"
)

// Example_clientServer shows the end-to-end vbsd path: compile a task
// to a Virtual Bit-Stream, start a daemon over a two-fabric pool, load
// the task twice — the second load is served from the decoded-
// bitstream cache — relocate it, and read the daemon's counters.
func Example_clientServer() {
	srv, err := server.New(newPool(2, 16), server.Options{})
	if err != nil {
		panic(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := server.NewClient(hs.URL, hs.Client())
	ctx := context.Background()

	container, err := makeVBS(7, 10, 4, 8, 1).Encode()
	if err != nil {
		panic(err)
	}

	first, err := cl.Load(ctx, container, server.LoadRequest{})
	if err != nil {
		panic(err)
	}
	second, err := cl.Load(ctx, container, server.LoadRequest{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("first load cached: %v\n", first.Cached)
	fmt.Printf("second load cached: %v\n", second.Cached)

	if _, err := cl.Relocate(ctx, second.ID, 9, 9); err != nil {
		panic(err)
	}

	samples, err := cl.Metrics(ctx)
	if err != nil {
		panic(err)
	}
	fabs, err := cl.Fabrics(ctx)
	if err != nil {
		panic(err)
	}
	decodes, _ := metrics.Find(samples, "vbs_decode_total", nil)
	tasks, _ := metrics.Find(samples, "vbs_server_tasks", nil)
	fmt.Printf("decodes: %g\n", decodes)
	fmt.Printf("tasks loaded: %g on %d fabrics\n", tasks, len(fabs))
	// Output:
	// first load cached: false
	// second load cached: true
	// decodes: 1
	// tasks loaded: 2 on 2 fabrics
}
