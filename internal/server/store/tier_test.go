package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/repo"
)

func newDisk(t *testing.T) *repo.Repo {
	t.Helper()
	r, err := repo.Open(t.TempDir(), repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTieredPutWritesThrough(t *testing.T) {
	disk := newDisk(t)
	s := NewTiered(0, disk)
	data := testVBS(t, 2)
	ent, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Has(ent.Digest) {
		t.Fatal("Put did not write through to disk")
	}
	got, err := disk.Get(ent.Digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("disk copy differs: %v", err)
	}
}

// TestTieredPutExistedCountsDiskResidency: re-putting a blob the
// store only holds on disk (after RAM eviction, or a restart's
// recovery scan) must report existed=true — POST /vbs and the
// cluster gateway's replication accounting rely on the dedup verdict.
func TestTieredPutExistedCountsDiskResidency(t *testing.T) {
	disk := newDisk(t)
	a := testVBS(t, 2)
	s := NewTiered(len(a)+1, disk)
	if _, existed, err := s.Put(a); err != nil || existed {
		t.Fatalf("first put: existed=%v, err=%v", existed, err)
	}
	// Evict a from RAM; the disk copy remains.
	entA := DigestOf(a)
	if _, _, err := s.Put(testVBS(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.getRAM(entA); ok {
		t.Fatal("first entry still RAM-resident; eviction did not trigger")
	}
	if _, existed, err := s.Put(a); err != nil || !existed {
		t.Fatalf("re-put of disk-resident blob: existed=%v, err=%v", existed, err)
	}

	// A fresh store over the same repository (a restarted daemon)
	// must also recognize the blob.
	s2 := NewTiered(0, disk)
	if _, existed, err := s2.Put(a); err != nil || !existed {
		t.Fatalf("re-put after restart: existed=%v, err=%v", existed, err)
	}
}

// TestTieredEvictionLosesNoBlob is the acceptance-criteria check:
// with a disk tier, RAM eviction demotes, and a later Get returns
// bytes identical to the original upload via disk fall-through.
func TestTieredEvictionLosesNoBlob(t *testing.T) {
	disk := newDisk(t)
	a := testVBS(t, 2)
	// Bound the RAM tier to one container so the second Put evicts the
	// first.
	s := NewTiered(len(a)+1, disk)
	entA, _, err := s.Put(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(testVBS(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.getRAM(entA.Digest); ok {
		t.Fatal("first entry still RAM-resident; eviction did not trigger")
	}
	if ts := s.TierStats(); ts.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", ts.Demotions)
	}
	ent, ok := s.Get(entA.Digest)
	if !ok {
		t.Fatal("evicted blob lost despite disk tier")
	}
	if !bytes.Equal(ent.Data, a) {
		t.Fatal("disk fall-through returned different bytes")
	}
	if ts := s.TierStats(); ts.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", ts.Promotions)
	}
	// Promoted back into RAM: the next Get is a RAM hit, no disk read.
	reads := disk.Stats().Reads
	if _, ok := s.Get(entA.Digest); !ok {
		t.Fatal("promoted blob missing")
	}
	if got := disk.Stats().Reads; got != reads {
		t.Fatalf("RAM hit after promotion still read disk (%d -> %d)", reads, got)
	}
}

func TestUntieredEvictionStillDeletes(t *testing.T) {
	a := testVBS(t, 2)
	s := NewTiered(len(a)+1, nil)
	entA, _, err := s.Put(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(testVBS(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(entA.Digest); ok {
		t.Fatal("RAM-only store resurrected an evicted entry")
	}
	if ts := s.TierStats(); ts.Demotions != 0 {
		t.Fatalf("RAM-only store counted %d demotions", ts.Demotions)
	}
}

// TestSingleflightPromotion is the satellite requirement: two
// goroutines missing RAM for the same digest must cause exactly one
// disk read.
func TestSingleflightPromotion(t *testing.T) {
	disk := newDisk(t)
	a := testVBS(t, 2)
	s := NewTiered(len(a)+1, disk)
	entA, _, err := s.Put(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(testVBS(t, 3)); err != nil { // evict a
		t.Fatal(err)
	}
	if _, ok := s.getRAM(entA.Digest); ok {
		t.Fatal("setup: blob still in RAM")
	}
	base := disk.Stats().Reads

	const gophers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	ents := make([]*Entry, gophers)
	for g := 0; g < gophers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ent, ok := s.Get(entA.Digest)
			if !ok {
				t.Errorf("goroutine %d: miss on tiered Get", g)
				return
			}
			ents[g] = ent
		}(g)
	}
	close(start)
	wg.Wait()
	if got := disk.Stats().Reads - base; got != 1 {
		t.Fatalf("concurrent promotion cost %d disk reads, want exactly 1", got)
	}
	for g, ent := range ents {
		if ent == nil || !bytes.Equal(ent.Data, a) {
			t.Fatalf("goroutine %d got wrong bytes", g)
		}
	}
	if ts := s.TierStats(); ts.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", ts.Promotions)
	}
}

// TestTieredConcurrentChurn hammers Put/Get across a store whose RAM
// tier only holds a fraction of the working set, so promotions and
// demotions race with admissions (run under -race in CI).
func TestTieredConcurrentChurn(t *testing.T) {
	disk := newDisk(t)
	blobs := make([][]byte, 6)
	var digests []Digest
	for i := range blobs {
		blobs[i] = testVBS(t, 2+i)
		digests = append(digests, DigestOf(blobs[i]))
	}
	s := NewTiered(2*len(blobs[0]), disk)
	for _, b := range blobs {
		if _, _, err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(blobs)
				switch i % 3 {
				case 0:
					if _, _, err := s.Put(blobs[k]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				default:
					ent, ok := s.Get(digests[k])
					if !ok {
						t.Errorf("Get %s: miss", digests[k].Short())
						return
					}
					if !bytes.Equal(ent.Data, blobs[k]) {
						t.Errorf("Get %s: wrong bytes", digests[k].Short())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if disk.Len() != len(blobs) {
		t.Fatalf("disk holds %d blobs, want %d", disk.Len(), len(blobs))
	}
}

func TestStoreDelete(t *testing.T) {
	disk := newDisk(t)
	s := NewTiered(0, disk)
	data := testVBS(t, 2)
	ent, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ent.Digest); err != nil {
		t.Fatal(err)
	}
	if s.entries[ent.Digest] != nil || disk.Has(ent.Digest) {
		t.Fatal("blob survived Delete in some tier")
	}
	if err := s.Delete(ent.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreListMergesTiers(t *testing.T) {
	disk := newDisk(t)
	a := testVBS(t, 2)
	s := NewTiered(len(a)+1, disk)
	entA, _, _ := s.Put(a)
	entB, _, _ := s.Put(testVBS(t, 3)) // evicts a to disk-only
	l := s.List()
	if len(l) != 2 {
		t.Fatalf("List: %d entries, want 2", len(l))
	}
	for _, b := range l {
		switch b.Digest {
		case entA.Digest:
			if b.RAM || !b.Disk {
				t.Fatalf("evicted blob residency: %+v", b)
			}
		case entB.Digest:
			if !b.RAM || !b.Disk {
				t.Fatalf("resident blob residency: %+v", b)
			}
		default:
			t.Fatalf("unknown digest %s", b.Digest.Short())
		}
	}
	// RAM-only store lists its entries too.
	s2 := NewTiered(0, nil)
	ent, _, _ := s2.Put(a)
	l2 := s2.List()
	if len(l2) != 1 || l2[0].Digest != ent.Digest || !l2[0].RAM || l2[0].Disk {
		t.Fatalf("RAM-only List: %+v", l2)
	}
}

func TestFetchDistinguishesNotFound(t *testing.T) {
	s := NewTiered(0, nil)
	if _, err := s.Fetch(DigestOf([]byte("x"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	disk := newDisk(t)
	s2 := NewTiered(0, disk)
	if _, err := s2.Fetch(DigestOf([]byte("x"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tiered miss: want ErrNotFound, got %v", err)
	}
}

func TestGetDataServesBothTiers(t *testing.T) {
	disk := newDisk(t)
	a := testVBS(t, 2)
	s := NewTiered(len(a)+1, disk)
	entA, _, _ := s.Put(a)
	b := testVBS(t, 3)
	entB, _, _ := s.Put(b) // evicts a
	reads := disk.Stats().Reads
	if got, err := s.GetData(entB.Digest); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("RAM GetData: %v", err)
	}
	if disk.Stats().Reads != reads {
		t.Fatal("RAM-resident GetData touched disk")
	}
	if got, err := s.GetData(entA.Digest); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("disk GetData: %v", err)
	}
	// GetData must not promote: the blob stays disk-only.
	if _, ok := s.getRAM(entA.Digest); ok {
		t.Fatal("GetData promoted the blob")
	}
}

func TestFlushPersistsRAMOnlyBlobs(t *testing.T) {
	disk := newDisk(t)
	s := NewTiered(0, disk)
	data := testVBS(t, 2)
	ent, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a blob that never reached disk (write-through normally
	// prevents this) by deleting the disk copy out from under the
	// store.
	if err := disk.Delete(ent.Digest); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := disk.Get(ent.Digest); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Flush did not persist the blob: %v", err)
	}
}

// TestTieredPutDiskFaultIsErrDisk: an injected repo write fault must
// surface as ErrDisk — the signal the HTTP layer maps to 500 and a
// cluster gateway fails over on — and clear once the fault is gone.
func TestTieredPutDiskFaultIsErrDisk(t *testing.T) {
	disk := newDisk(t)
	s := NewTiered(0, disk)
	disk.SetFaults(repo.Faults{FailPuts: true})

	data := testVBS(t, 2)
	_, _, err := s.Put(data)
	if !errors.Is(err, ErrDisk) {
		t.Fatalf("Put with FailPuts: err=%v, want ErrDisk", err)
	}
	if !errors.Is(err, repo.ErrInjected) {
		t.Fatalf("Put error should wrap the injected cause: %v", err)
	}
	if st := disk.Stats(); st.WriteErrors != 1 {
		t.Fatalf("disk stats: %+v, want WriteErrors=1", st)
	}

	disk.SetFaults(repo.Faults{})
	ent, _, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put after clearing faults: %v", err)
	}
	if !disk.Has(ent.Digest) {
		t.Fatal("blob did not reach disk after faults cleared")
	}
}
