package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func waitStatus(t *testing.T, j *Job, want Status) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %d did not finish", j.ID())
	}
	s := j.Snapshot()
	if s.Status != want {
		t.Fatalf("job %d status = %s (%q), want %s", j.ID(), s.Status, s.Error, want)
	}
	return s
}

func TestJobLifecycle(t *testing.T) {
	tbl := NewTable()
	tbl.Define(Spec{Kind: "count", Run: func(ctx context.Context, j *Job) error {
		for i := 0; i < 5; i++ {
			j.Add("items", 1)
		}
		j.Set("total", 5)
		return nil
	}})
	j, err := tbl.Start("count", map[string]string{"who": "test"})
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, j, StatusDone)
	if s.Progress["items"] != 5 || s.Progress["total"] != 5 {
		t.Errorf("progress = %v, want items=5 total=5", s.Progress)
	}
	if s.Args["who"] != "test" || s.Kind != "count" || s.ID != j.ID() {
		t.Errorf("snapshot identity = %+v", s)
	}
	if s.Finished.IsZero() || s.Finished.Before(s.Started) {
		t.Errorf("finished %v not after started %v", s.Finished, s.Started)
	}
}

func TestJobFailure(t *testing.T) {
	tbl := NewTable()
	boom := errors.New("boom")
	tbl.Define(Spec{Kind: "fail", Run: func(ctx context.Context, j *Job) error { return boom }})
	j, err := tbl.Start("fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, j, StatusFailed)
	if s.Error != "boom" {
		t.Errorf("error = %q, want boom", s.Error)
	}
}

func TestJobAbort(t *testing.T) {
	tbl := NewTable()
	started := make(chan struct{})
	tbl.Define(Spec{Kind: "wait", Run: func(ctx context.Context, j *Job) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	j, err := tbl.Start("wait", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !tbl.Abort(j.ID()) {
		t.Fatal("abort reported unknown id")
	}
	waitStatus(t, j, StatusAborted)
	if tbl.Abort(99999) {
		t.Error("abort of unknown id reported true")
	}
}

func TestExclusiveKind(t *testing.T) {
	tbl := NewTable()
	release := make(chan struct{})
	tbl.Define(Spec{Kind: "solo", Exclusive: true, Run: func(ctx context.Context, j *Job) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}})
	j1, err := tbl.Start("solo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Start("solo", nil); !errors.Is(err, ErrExclusive) {
		t.Fatalf("second start err = %v, want ErrExclusive", err)
	}
	close(release)
	waitStatus(t, j1, StatusDone)
	// Terminal instance no longer blocks a restart.
	j2, err := tbl.Start("solo", nil)
	if err != nil {
		t.Fatalf("restart after done: %v", err)
	}
	waitStatus(t, j2, StatusDone)
}

func TestUnknownKind(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Start("nope", nil); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestListAndSweep(t *testing.T) {
	tbl := NewTable()
	tbl.Define(Spec{Kind: "quick", Run: func(ctx context.Context, j *Job) error { return nil }})
	hold := make(chan struct{})
	tbl.Define(Spec{Kind: "slow", Run: func(ctx context.Context, j *Job) error {
		select {
		case <-hold:
		case <-ctx.Done():
		}
		return nil
	}})
	for i := 0; i < 3; i++ {
		j, err := tbl.Start("quick", nil)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, j, StatusDone)
	}
	if _, err := tbl.Start("slow", nil); err != nil {
		t.Fatal(err)
	}
	ls := tbl.List()
	if len(ls) != 4 {
		t.Fatalf("List() = %d jobs, want 4", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].ID <= ls[i-1].ID {
			t.Errorf("List() not id-ordered: %d after %d", ls[i].ID, ls[i-1].ID)
		}
	}
	running := 0
	for _, s := range ls {
		if !s.Status.Terminal() {
			running++
		}
	}
	if running != 1 {
		t.Errorf("%d jobs running, want 1", running)
	}
	// keep=0 sweeps every terminal job, never the running one.
	if n := tbl.Sweep(0); n != 3 {
		t.Errorf("Sweep dropped %d, want 3", n)
	}
	if len(tbl.List()) != 1 {
		t.Errorf("after sweep: %d jobs, want 1 (running)", len(tbl.List()))
	}
	close(hold)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tbl.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownAbortsRunning(t *testing.T) {
	tbl := NewTable()
	started := make(chan struct{})
	tbl.Define(Spec{Kind: "wait", Run: func(ctx context.Context, j *Job) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	j, err := tbl.Start("wait", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tbl.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if s := j.Snapshot(); s.Status != StatusAborted {
		t.Errorf("status after shutdown = %s, want aborted", s.Status)
	}
}

func TestConcurrentStartAndList(t *testing.T) {
	tbl := NewTable()
	tbl.Define(Spec{Kind: "w", Run: func(ctx context.Context, j *Job) error {
		j.Add("n", 1)
		return nil
	}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = tbl.List()
		}
	}()
	var jobs []*Job
	for i := 0; i < 50; i++ {
		j, err := tbl.Start("w", map[string]string{"i": fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-done
	for _, j := range jobs {
		waitStatus(t, j, StatusDone)
	}
}
