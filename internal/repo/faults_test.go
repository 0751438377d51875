package repo

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openFaultRepo(t *testing.T) *Repo {
	t.Helper()
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r
}

func TestFaultsFailPuts(t *testing.T) {
	r := openFaultRepo(t)
	r.SetFaults(Faults{FailPuts: true})

	data := []byte("fail-puts payload")
	if _, _, err := r.Put(data); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under FailPuts: err=%v, want ErrInjected", err)
	}
	if s := r.Stats(); s.WriteErrors != 1 || s.Blobs != 0 {
		t.Fatalf("stats after failed put: %+v, want WriteErrors=1 Blobs=0", s)
	}

	// Disarming restores writes, and a duplicate put under faults still
	// dedups (the seam models disk writes, not index lookups).
	r.SetFaults(Faults{})
	d, existed, err := r.Put(data)
	if err != nil || existed {
		t.Fatalf("Put after clearing faults: existed=%v err=%v", existed, err)
	}
	r.SetFaults(Faults{FailPuts: true})
	if _, err := r.PutDigest(d, data); err != nil {
		t.Fatalf("dedup PutDigest under FailPuts: %v", err)
	}
	if s := r.Stats(); s.WriteErrors != 1 {
		t.Fatalf("dedup put must not count a write error: %+v", s)
	}
}

func TestFaultsFailReads(t *testing.T) {
	r := openFaultRepo(t)
	data := []byte("fail-reads payload")
	d, _, err := r.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	r.SetFaults(Faults{FailReads: true})
	got, err := r.Get(d)
	if !errors.Is(err, ErrInjected) || got != nil {
		t.Fatalf("Get under FailReads: data=%v err=%v, want nil, ErrInjected", got, err)
	}
	s := r.Stats()
	if s.ReadErrors != 1 || s.Quarantined != 0 {
		t.Fatalf("stats after injected read error: %+v, want ReadErrors=1 Quarantined=0", s)
	}
	// The blob stays indexed — the file on disk is presumed intact.
	if !r.Has(d) {
		t.Fatal("blob dropped from index by a transient read fault")
	}
	r.SetFaults(Faults{})
	if got, err := r.Get(d); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after clearing faults: err=%v", err)
	}
}

// corruptionFaultCases drive the two verification failure paths: a
// flipped payload byte (CRC mismatch) and a truncated payload (short
// read). Both must quarantine and never return bytes.
func TestFaultsCorruptAndShortReads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault Faults
	}{
		{"corrupt", Faults{CorruptReads: true}},
		{"short", Faults{ShortReads: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := openFaultRepo(t)
			data := []byte("verification payload " + tc.name)
			d, _, err := r.Put(data)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}

			r.SetFaults(tc.fault)
			got, err := r.Get(d)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get under %s: err=%v, want ErrCorrupt", tc.name, err)
			}
			if got != nil {
				t.Fatalf("Get under %s returned bytes: %q", tc.name, got)
			}
			s := r.Stats()
			if s.Quarantined != 1 || s.ReadErrors != 0 {
				t.Fatalf("stats: %+v, want Quarantined=1 ReadErrors=0", s)
			}
			if r.Has(d) {
				t.Fatal("quarantined blob still indexed")
			}
			if _, err := r.Get(d); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after quarantine: %v, want ErrNotFound", err)
			}

			// The healthy file was moved aside, not deleted: it must sit
			// in the quarantine directory.
			matches, err := filepath.Glob(filepath.Join(r.dir, "quarantine", "*"+blobExt))
			if err != nil || len(matches) != 1 {
				t.Fatalf("quarantine files: %v (err=%v), want 1", matches, err)
			}
		})
	}
}

// TestFaultsRecoveryScanUnaffected proves injected faults only rot the
// serve path: a re-open of the same directory sees the disk as it is.
func TestFaultsRecoveryScanUnaffected(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	data := []byte("survives reopen")
	d, _, err := r.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	r.SetFaults(Faults{CorruptReads: true, ShortReads: true, FailReads: true})

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	if rep := r2.ScanReport(); rep.Recovered != 1 || rep.Quarantined != 0 {
		t.Fatalf("recovery scan: %+v, want Recovered=1", rep)
	}
	if got, err := r2.Get(d); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get from fresh repo: err=%v", err)
	}
}

func TestFaultsAccessors(t *testing.T) {
	r := openFaultRepo(t)
	if f := r.Faults(); f.Any() {
		t.Fatalf("fresh repo has faults armed: %+v", f)
	}
	r.SetFaults(Faults{FailPuts: true, ShortReads: true})
	if f := r.Faults(); !f.FailPuts || !f.ShortReads || f.FailReads || f.CorruptReads {
		t.Fatalf("Faults() = %+v", f)
	}
	r.SetFaults(Faults{})
	if f := r.Faults(); f.Any() {
		t.Fatalf("faults not cleared: %+v", f)
	}
}

// TestFaultsOnDiskCorruption is the no-seam baseline the chaos
// corruptblob recipe relies on: real on-disk byte flips are caught the
// same way.
func TestFaultsOnDiskCorruption(t *testing.T) {
	r := openFaultRepo(t)
	data := []byte("real on-disk corruption")
	d, _, err := r.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := BlobPath(r.dir, d)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob file: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write corrupted blob: %v", err)
	}
	if _, err := r.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of corrupted file: %v, want ErrCorrupt", err)
	}
	if s := r.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats: %+v, want Quarantined=1", s)
	}
}
