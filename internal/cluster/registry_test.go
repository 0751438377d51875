package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestRegistryStateMachine drives a node through
// alive → suspect → down → alive using synchronous probe sweeps
// against a real daemon that we kill and replace.
func TestRegistryStateMachine(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	reg := cluster.NewRegistry([]string{n.url}, time.Hour, time.Second)

	ctx := t.Context()
	reg.ProbeAll(ctx)
	if got := reg.State(n.url); got != cluster.Alive {
		t.Fatalf("state after healthy probe = %v", got)
	}

	n.kill()
	reg.ProbeAll(ctx)
	if got := reg.State(n.url); got != cluster.Suspect {
		t.Fatalf("state after one failed probe = %v, want suspect", got)
	}
	if !reg.Alive(n.url) {
		t.Fatal("suspect node reported not alive: one failure must not eject")
	}
	reg.ProbeAll(ctx)
	if got := reg.State(n.url); got != cluster.Down {
		t.Fatalf("state after two failed probes = %v, want down", got)
	}
	if reg.Alive(n.url) {
		t.Fatal("down node reported alive")
	}

	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].State != "down" || snap[0].LastError == "" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestRegistryRequestPathDemotion: failures observed on the request
// path demote without waiting for a probe tick, and any successful
// exchange revives.
func TestRegistryRequestPathDemotion(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	reg := cluster.NewRegistry([]string{n.url}, time.Hour, time.Second)
	reg.ProbeAll(t.Context())

	err := errors.New("connection refused")
	reg.ReportFailure(n.url, err)
	if got := reg.State(n.url); got != cluster.Suspect {
		t.Fatalf("state after reported failure = %v", got)
	}
	reg.ReportFailure(n.url, err)
	if got := reg.State(n.url); got != cluster.Down {
		t.Fatalf("state after second reported failure = %v", got)
	}
	reg.ReportSuccess(n.url)
	if got := reg.State(n.url); got != cluster.Alive {
		t.Fatalf("state after reported success = %v", got)
	}

	if got := reg.State("http://unknown:1"); got != cluster.Down {
		t.Fatalf("unknown node state = %v, want down", got)
	}
}

// TestRegistryConcurrentAddRemove hammers runtime membership changes
// against concurrent probe rounds and lookups — the probe loop must
// work off a snapshot of the node set, so this is clean under -race
// (the CI race matrix runs it).
func TestRegistryConcurrentAddRemove(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	reg := cluster.NewRegistry([]string{n.url}, time.Hour, 50*time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("http://127.0.0.1:%d", 40000+w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					reg.Add(name)
				} else {
					reg.Remove(name)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.ProbeAll(context.Background())
			reg.Names()
			reg.Client(n.url)
			reg.Snapshot()
			reg.ReportSuccess(n.url)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if reg.Client(n.url) == nil {
		t.Fatal("original node lost during concurrent churn")
	}
	if !reg.Add("http://127.0.0.1:49999") {
		t.Fatal("add after churn failed")
	}
	if !reg.Remove("http://127.0.0.1:49999") {
		t.Fatal("remove after churn failed")
	}
}

// TestRegistryProbeLoop: the background loop flips a killed node to
// down without any request traffic.
func TestRegistryProbeLoop(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	reg := cluster.NewRegistry([]string{n.url}, 20*time.Millisecond, time.Second)
	reg.ProbeAll(t.Context())
	reg.Start()
	defer reg.Stop()

	n.kill()
	deadline := time.Now().Add(5 * time.Second)
	for reg.State(n.url) != cluster.Down {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never demoted the killed node")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
