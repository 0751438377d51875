package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/loadgen"
)

// TestTaskIDsNeverWrap: the last sequence number of a boot is handed
// out once, under the boot's instance; the load after it is refused
// rather than wrapped onto an id that may still be live.
func TestTaskIDsNeverWrap(t *testing.T) {
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 16, Height: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]*controller.Controller{controller.New(f, 2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := loadgen.GenTask(1, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	s.seq = maxSeq - 1
	last, _, err := s.loadOne(time.Now(), data, LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Instance()<<InstanceShift | maxSeq; last.ID != want || last.ID <= 0 || InstanceOf(last.ID) != s.Instance() {
		t.Fatalf("last id of the boot = %d, want %d (instance %d)", last.ID, want, s.Instance())
	}
	if _, status, err := s.loadOne(time.Now(), data, LoadRequest{}); err == nil || status != http.StatusServiceUnavailable {
		t.Fatalf("load past the last sequence number: status %d, err %v; want 503", status, err)
	}
	if len(s.tasks) != 1 {
		t.Fatalf("%d task(s) registered, want only the last one", len(s.tasks))
	}
}
