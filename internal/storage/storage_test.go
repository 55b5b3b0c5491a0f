package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk()
	id, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "hello")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatalf("got %q", got[:5])
	}
	if err := d.ReadPage(99, got); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if d.NumPages() != 1 {
		t.Errorf("NumPages = %d", d.NumPages())
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	d, err := NewFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a, _ := d.AllocatePage()
	b, _ := d.AllocatePage()
	buf := make([]byte, PageSize)
	copy(buf, "page-b")
	if err := d.WritePage(b, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(a, got); err != nil {
		t.Fatal(err) // freshly allocated pages must be readable
	}
	if err := d.ReadPage(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:6], []byte("page-b")) {
		t.Fatalf("got %q", got[:6])
	}
	// Reopen: allocation cursor should resume after existing pages.
	d.Close()
	d2, err := NewFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Fatalf("NumPages after reopen = %d", d2.NumPages())
	}
	c, _ := d2.AllocatePage()
	if c != 2 {
		t.Fatalf("next page = %d", c)
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 2)
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p1.Latch.Lock()
	copy(p1.Data[:], "one")
	p1.Latch.Unlock()
	bp.Unpin(p1, true)
	p2, _ := bp.NewPage()
	bp.Unpin(p2, true)
	p3, _ := bp.NewPage() // evicts p1 (LRU) and must flush it
	bp.Unpin(p3, true)

	st := bp.Stats()
	if st.Evictions != 1 || st.Writes != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// p1 must round-trip through disk.
	got, err := bp.FetchPage(p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.Latch.RLock()
	if !bytes.Equal(got.Data[:3], []byte("one")) {
		t.Fatalf("data lost on eviction: %q", got.Data[:3])
	}
	got.Latch.RUnlock()
	bp.Unpin(got, false)
	st = bp.Stats()
	if st.Misses < 1 {
		t.Fatalf("expected a miss, stats %+v", st)
	}
	// Fetch again: hit.
	again, _ := bp.FetchPage(p1.ID)
	bp.Unpin(again, false)
	if bp.Stats().Hits < 1 {
		t.Fatal("expected a hit")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2)
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("pool with all pages pinned should refuse a third page")
	}
	bp.Unpin(a, false)
	bp.Unpin(b, false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpinning: %v", err)
	}
}

func TestBufferPoolReserveBytes(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 10)
	bp.ReserveBytes(8 * PageSize)
	if got := bp.effectiveCapacity(); got != 2 {
		t.Fatalf("effective capacity = %d, want 2", got)
	}
	bp.ReserveBytes(-8 * PageSize)
	if got := bp.effectiveCapacity(); got != 10 {
		t.Fatalf("effective capacity = %d, want 10", got)
	}
	bp.ReserveBytes(1000 * PageSize)
	if got := bp.effectiveCapacity(); got != 1 {
		t.Fatalf("effective capacity floor = %d, want 1", got)
	}
}

func TestSlottedInsertGetDelete(t *testing.T) {
	p := &Page{}
	InitSlotted(p)
	s1, err := SlottedInsert(p, []byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SlottedInsert(p, []byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := SlottedGet(p, s1); string(rec) != "alpha" {
		t.Fatalf("s1 = %q", rec)
	}
	if rec, _ := SlottedGet(p, s2); string(rec) != "beta" {
		t.Fatalf("s2 = %q", rec)
	}
	if err := SlottedDelete(p, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := SlottedGet(p, s1); err == nil {
		t.Fatal("get of deleted slot should fail")
	}
	// Deleted slot is reused.
	s3, err := SlottedInsert(p, []byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("slot not reused: %d vs %d", s3, s1)
	}
	if SlottedLiveCount(p) != 2 {
		t.Fatalf("live count = %d", SlottedLiveCount(p))
	}
}

func TestSlottedUpdateInPlaceAndGrow(t *testing.T) {
	p := &Page{}
	InitSlotted(p)
	s, _ := SlottedInsert(p, []byte("0123456789"))
	if err := SlottedUpdate(p, s, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if rec, _ := SlottedGet(p, s); string(rec) != "abc" {
		t.Fatalf("after shrink: %q", rec)
	}
	big := bytes.Repeat([]byte("x"), 100)
	if err := SlottedUpdate(p, s, big); err != nil {
		t.Fatal(err)
	}
	if rec, _ := SlottedGet(p, s); !bytes.Equal(rec, big) {
		t.Fatal("after grow: mismatch")
	}
}

func TestSlottedFillsAndCompacts(t *testing.T) {
	p := &Page{}
	InitSlotted(p)
	rec := bytes.Repeat([]byte("r"), 100)
	var slots []Slot
	for {
		s, err := SlottedInsert(p, rec)
		if err != nil {
			if !IsPageFull(err) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 70 {
		t.Fatalf("only %d records fit in a page", len(slots))
	}
	// Delete every other record; page has holes but contiguous free space
	// is small. A grow-update must trigger compaction and succeed.
	for i := 0; i < len(slots); i += 2 {
		if err := SlottedDelete(p, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 150)
	if err := SlottedUpdate(p, slots[1], big); err != nil {
		t.Fatalf("update after deletes should compact: %v", err)
	}
	if rec, _ := SlottedGet(p, slots[1]); !bytes.Equal(rec, big) {
		t.Fatal("compaction corrupted record")
	}
	// All other surviving records intact.
	for i := 3; i < len(slots); i += 2 {
		got, err := SlottedGet(p, slots[i])
		if err != nil || !bytes.Equal(got, rec100()) {
			t.Fatalf("slot %d corrupted after compaction: %v", slots[i], err)
		}
	}
}

func rec100() []byte { return bytes.Repeat([]byte("r"), 100) }

func TestSlottedRejectsOversized(t *testing.T) {
	p := &Page{}
	InitSlotted(p)
	if _, err := SlottedInsert(p, make([]byte, PageSize)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := SlottedInsert(p, nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestNextPageChain(t *testing.T) {
	p := &Page{}
	InitSlotted(p)
	if NextPage(p) != InvalidPageID {
		t.Fatalf("fresh page next = %d", NextPage(p))
	}
	SetNextPage(p, 42)
	if NextPage(p) != 42 {
		t.Fatalf("next = %d", NextPage(p))
	}
}

func newTestHeap(t *testing.T) *HeapFile {
	t.Helper()
	bp := NewBufferPool(NewMemDisk(), 64)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapInsertGetDeleteUpdate(t *testing.T) {
	h := newTestHeap(t)
	rid, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("get: %q %v", got, err)
	}
	rid2, err := h.Update(rid, []byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(rid2)
	if string(got) != "hello world" {
		t.Fatalf("after update: %q", got)
	}
	if err := h.Delete(rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid2); err == nil {
		t.Fatal("get after delete should fail")
	}
}

func TestHeapGrowsAcrossPages(t *testing.T) {
	h := newTestHeap(t)
	rec := bytes.Repeat([]byte("z"), 500)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Pages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.Pages())
	}
	n, err := h.Count()
	if err != nil || n != 100 {
		t.Fatalf("count = %d err %v", n, err)
	}
	for _, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("rid %s: %v", rid, err)
		}
	}
}

func TestHeapScanOrderAndStop(t *testing.T) {
	h := newTestHeap(t)
	for i := 0; i < 10; i++ {
		if _, err := h.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	err := h.Scan(func(rid RID, rec []byte) bool {
		seen = append(seen, rec[0])
		return len(seen) < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("scan did not stop: %d", len(seen))
	}
	for i, b := range seen {
		if int(b) != i {
			t.Fatalf("scan order: %v", seen)
		}
	}
}

func TestHeapConcurrentInserts(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 128)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := []byte(fmt.Sprintf("g%d-i%d-%s", g, i, bytes.Repeat([]byte("p"), rand.Intn(50))))
				if _, err := h.Insert(rec); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	n, err := h.Count()
	if err != nil || n != goroutines*perG {
		t.Fatalf("count = %d err %v", n, err)
	}
}

func TestHeapWithTinyPoolSpillsToDisk(t *testing.T) {
	// A pool of 2 pages forces constant eviction; data must survive.
	bp := NewBufferPool(NewMemDisk(), 2)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("d"), 1000)
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("rid %s lost after eviction: %v", rid, err)
		}
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("expected evictions with tiny pool")
	}
}

func TestRIDOrdering(t *testing.T) {
	a := RID{Page: 1, Slot: 2}
	b := RID{Page: 1, Slot: 3}
	c := RID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("RID ordering broken")
	}
	if a.String() != "(1,2)" {
		t.Fatalf("String = %q", a.String())
	}
}
