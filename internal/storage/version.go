package storage

import (
	"sort"
	"sync/atomic"

	"sqlcm/internal/lockcheck"
)

// Multi-version row storage. Every logical row of a table carries a chain
// of immutable versions, newest first. Writers (serialized per table by
// the lock manager's exclusive table locks) prepend versions
// stamped with their transaction id; commit stamps the versions with a
// monotonically increasing commit timestamp inside the transaction
// manager's commit critical section. Readers resolve the version visible
// to their snapshot by walking the chain — no locks taken beyond the
// store's own short map latch, so readers never appear in the lock
// manager's wait graph.
//
// The chains are the authoritative row storage for reads: snapshot and
// current-mode scans iterate the chain map and return version bytes, never
// heap bytes. The heap mirrors the current row images (for RID allocation
// and persistence) but is not consulted on read paths — that is what makes
// lock-free readers safe against in-place heap updates and slot
// relocation.
//
// Physical cleanup is deferred: DELETE pushes a tombstone version and
// leaves the heap record and index entries in place so older snapshots
// keep resolving them; Prune reclaims both once the version-garbage
// watermark (the oldest snapshot any live transaction holds) has passed
// the superseding commit.
//
// Index entries are rid-stable: they are always created with the chain's
// anchor RID (the heap RID at first versioning), never rewritten on heap
// relocation, and resolved through the chain map (which aliases every
// historical RID of the row). Entries become stale only when the row's key
// changes; stale entries are recorded as pending removals and reclaimed by
// Prune.

// BaseCommitTS stamps base versions installed outside any transaction
// (engine-internal direct inserts). It is visible to every snapshot:
// visibility requires a nonzero commit timestamp <= the snapshot's, and
// every snapshot timestamp is >= 0.
const BaseCommitTS = -1

// Snapshot is a point-in-time read view: the highest commit timestamp the
// reader observes plus its own transaction id (a transaction always sees
// its own uncommitted writes).
type Snapshot struct {
	TS   int64
	Self int64
}

// VersionStats aggregates MVCC counters, shared by every version store of
// one engine (the Versions_Pruned / Versions_Retained probes).
type VersionStats struct {
	// Pruned counts versions physically discarded by Prune.
	Pruned atomic.Int64
	// Retained counts versions currently held across all chains.
	Retained atomic.Int64
}

// Version is one immutable row version. rec and txnID are fixed at
// construction; commit is stamped exactly once at transaction commit.
type Version struct {
	rec    []byte // encoded row; nil marks a tombstone (deleted)
	txnID  int64
	commit atomic.Int64 // 0 while uncommitted
	// next points at the older version; Prune truncates it.
	//sqlcm:cow storage.version
	next atomic.Pointer[Version]
}

// Rec returns the encoded row (nil for a tombstone).
func (v *Version) Rec() []byte { return v.rec }

// Tombstone reports whether the version marks a deletion.
func (v *Version) Tombstone() bool { return v.rec == nil }

// CommitTS returns the commit timestamp (0 while uncommitted).
func (v *Version) CommitTS() int64 { return v.commit.Load() }

// SetCommit stamps the commit timestamp. Runs inside the transaction
// manager's commit critical section, before the timestamp is published to
// new snapshots.
func (v *Version) SetCommit(ts int64) { v.commit.Store(ts) }

// visibleTo resolves the newest version of the chain rooted at v that snap
// may observe, walking atomics only. depth counts versions examined (the
// Version_Chain_Length probe).
func visibleTo(v *Version, snap Snapshot) (vis *Version, depth int) {
	for ; v != nil; v = v.next.Load() {
		depth++
		ts := v.commit.Load()
		if v.txnID == snap.Self && ts == 0 {
			return v, depth
		}
		if ts != 0 && ts <= snap.TS {
			return v, depth
		}
	}
	return nil, depth
}

// Pending records one deferred index-entry removal: the entry (Index, Key,
// Rid) may be deleted once the version that superseded it is visible to
// every live and future snapshot.
type Pending struct {
	Index string
	Key   []byte
	Rid   RID
	// By is the version whose installation made the entry stale.
	By *Version
}

// chain tracks the versions of one logical row. All fields are guarded by
// the owning store's mutex except head, which readers load lock-free.
type chain struct {
	//sqlcm:cow storage.version
	head atomic.Pointer[Version]
	// rid is the row's current heap location (relocations move it).
	//sqlcm:guarded-by storage.version
	rid RID
	// anchor is the heap RID the row was first versioned at; every index
	// entry of the row is created with it, so exact-pair deletes work
	// without tracking entry relocation.
	//sqlcm:guarded-by storage.version
	anchor RID
	// rids lists every heap RID mapping to this chain (anchor, current,
	// and aliases left behind by relocations).
	//sqlcm:guarded-by storage.version
	rids []RID
	// pend holds the chain's deferred index-entry removals — at most one
	// per (index, key): a key leaving the row adds one, the key returning
	// cancels it.
	//sqlcm:guarded-by storage.version
	pend []Pending
}

// ChainRow is one row materialized from a chain scan.
type ChainRow struct {
	// Rid is the row's current heap RID.
	Rid RID
	// Anchor is the RID index entries for the row carry.
	Anchor RID
	// Rec is the visible version's encoded row.
	Rec []byte
	// Depth is the number of versions examined to resolve visibility.
	Depth int
}

// VersionStore holds the version chains of one table.
type VersionStore struct {
	stats *VersionStats

	// mu protects the chain map and every chain's mutable fields (rid,
	// anchor, rids, pend). Chain heads and version links are read through
	// atomics so visibility walks escape the critical section.
	//sqlcm:lock storage.version
	//sqlcm:guards chains
	mu     lockcheck.RWMutex
	chains map[RID]*chain
}

// NewVersionStore returns an empty store reporting into stats.
func NewVersionStore(stats *VersionStats) *VersionStore {
	if stats == nil {
		stats = &VersionStats{}
	}
	s := &VersionStore{stats: stats, chains: make(map[RID]*chain)}
	s.mu.SetClass("storage.version")
	return s
}

// Stats returns the shared counters.
func (s *VersionStore) Stats() *VersionStats { return s.stats }

// Install creates the chain for a freshly inserted row. committed installs
// the version pre-stamped with BaseCommitTS (engine-internal inserts that
// must be visible to every snapshot); otherwise the caller stamps the
// returned version at commit.
func (s *VersionStore) Install(rid RID, rec []byte, txnID int64, committed bool) *Version {
	v := &Version{rec: rec, txnID: txnID}
	if committed {
		v.commit.Store(BaseCommitTS)
	}
	c := &chain{rid: rid, anchor: rid, rids: []RID{rid}}
	s.mu.Lock()
	c.head.Store(v)
	s.chains[rid] = c
	s.mu.Unlock()
	s.stats.Retained.Add(1)
	return v
}

// Push prepends a new version carrying rec (UPDATE).
func (s *VersionStore) Push(rid RID, rec []byte, txnID int64) *Version {
	v := &Version{rec: rec, txnID: txnID}
	s.push(rid, v)
	return v
}

// Tombstone prepends a deletion marker (DELETE). The heap record and the
// index entries stay in place until Prune reclaims them.
func (s *VersionStore) Tombstone(rid RID, txnID int64) *Version {
	v := &Version{txnID: txnID}
	s.push(rid, v)
	return v
}

func (s *VersionStore) push(rid RID, v *Version) {
	s.mu.Lock()
	c := s.chains[rid]
	if c == nil {
		// Defensive: a row the store has never seen (should not happen —
		// every insert installs a chain). Adopt it with v as the only
		// version.
		c = &chain{rid: rid, anchor: rid, rids: []RID{rid}}
		s.chains[rid] = c
	} else {
		v.next.Store(c.head.Load())
	}
	c.head.Store(v)
	s.mu.Unlock()
	s.stats.Retained.Add(1)
}

// Relocate records that the heap moved the row from oldRid to newRid. The
// old RID stays aliased so index entries and captured RIDs keep resolving.
func (s *VersionStore) Relocate(oldRid, newRid RID) {
	s.mu.Lock()
	c := s.chains[oldRid]
	if c != nil {
		c.rid = newRid
		c.rids = append(c.rids, newRid)
		s.chains[newRid] = c
	}
	s.mu.Unlock()
}

// Anchor returns the RID index entries of the row at rid carry.
func (s *VersionStore) Anchor(rid RID) RID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.chains[rid]; c != nil {
		return c.anchor
	}
	return rid
}

// CurrentRID returns the row's current heap RID.
func (s *VersionStore) CurrentRID(rid RID) RID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.chains[rid]; c != nil {
		return c.rid
	}
	return rid
}

// Pop removes the newest version (transaction rollback of one UPDATE or
// DELETE). The chain must hold an older version underneath.
func (s *VersionStore) Pop(rid RID) {
	s.mu.Lock()
	c := s.chains[rid]
	if c != nil {
		if h := c.head.Load(); h != nil {
			if n := h.next.Load(); n != nil {
				c.head.Store(n)
			} else {
				for _, r := range c.rids {
					delete(s.chains, r)
				}
			}
			s.stats.Retained.Add(-1)
		}
	}
	s.mu.Unlock()
}

// Discard drops the whole chain at rid (INSERT rollback — the heap slot is
// being freed too).
func (s *VersionStore) Discard(rid RID) {
	s.mu.Lock()
	c := s.chains[rid]
	if c != nil {
		n := int64(chainLen(c.head.Load()))
		for _, r := range c.rids {
			delete(s.chains, r)
		}
		s.stats.Retained.Add(-n)
	}
	s.mu.Unlock()
}

func chainLen(v *Version) int {
	n := 0
	for ; v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// ReadAt resolves the row at rid (an index-entry RID, any alias) for snap.
// ok is false when the row is invisible to the snapshot or gone.
func (s *VersionStore) ReadAt(rid RID, snap Snapshot) (rec []byte, depth int, ok bool) {
	s.mu.RLock()
	c := s.chains[rid]
	s.mu.RUnlock()
	if c == nil {
		return nil, 0, false
	}
	vis, depth := visibleTo(c.head.Load(), snap)
	if vis == nil || vis.Tombstone() {
		return nil, depth, false
	}
	return vis.rec, depth, true
}

// CurrentAt resolves the row at rid for a current-mode reader (a writer
// holding the table's exclusive lock): the newest version is authoritative
// and any uncommitted version belongs to the caller. ok is false when the
// row is deleted or gone.
func (s *VersionStore) CurrentAt(rid RID) (curRid RID, rec []byte, ok bool) {
	s.mu.RLock()
	c := s.chains[rid]
	var cur RID
	if c != nil {
		cur = c.rid
	}
	s.mu.RUnlock()
	if c == nil {
		return rid, nil, false
	}
	h := c.head.Load()
	if h == nil || h.Tombstone() {
		return cur, nil, false
	}
	return cur, h.rec, true
}

// Dead reports whether the row at rid is deleted for a current-mode
// reader. Unique-index inserts use it to reclaim entries retained only for
// older snapshots.
func (s *VersionStore) Dead(rid RID) bool {
	_, _, ok := s.CurrentAt(rid)
	return !ok
}

// collect captures the distinct live chains under the read lock.
func (s *VersionStore) collect() []*chain {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*chain, 0, len(s.chains))
	seen := make(map[*chain]bool, len(s.chains))
	for _, c := range s.chains {
		if c != nil && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// SnapScan materializes every row visible to snap, in current-RID order
// (matching heap scan order). The row set is captured atomically with
// respect to chain installation and pruning.
func (s *VersionStore) SnapScan(snap Snapshot) []ChainRow {
	chains := s.collect()
	out := make([]ChainRow, 0, len(chains))
	s.mu.RLock()
	for _, c := range chains {
		head := c.head.Load()
		vis, depth := visibleTo(head, snap)
		if vis == nil || vis.Tombstone() {
			continue
		}
		out = append(out, ChainRow{Rid: c.rid, Anchor: c.anchor, Rec: vis.rec, Depth: depth})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rid.Less(out[j].Rid) })
	return out
}

// CurrentScan materializes every live row in current-mode, in current-RID
// order.
func (s *VersionStore) CurrentScan() []ChainRow {
	chains := s.collect()
	out := make([]ChainRow, 0, len(chains))
	s.mu.RLock()
	for _, c := range chains {
		h := c.head.Load()
		if h == nil || h.Tombstone() {
			continue
		}
		out = append(out, ChainRow{Rid: c.rid, Anchor: c.anchor, Rec: h.rec, Depth: 1})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rid.Less(out[j].Rid) })
	return out
}

// AddPending defers removal of index entry (index, key, entryRid) until by
// is visible to every snapshot.
func (s *VersionStore) AddPending(rid RID, index string, key []byte, entryRid RID, by *Version) {
	s.mu.Lock()
	if c := s.chains[rid]; c != nil {
		c.pend = append(c.pend, Pending{Index: index, Key: key, Rid: entryRid, By: by})
	}
	s.mu.Unlock()
}

// TakePending removes and returns the deferred removal of (index, key), if
// one exists: the entry is being resurrected as the row's current key (or
// an update is being rolled back), so it must not be reclaimed. The
// returned Pending allows exact restoration.
func (s *VersionStore) TakePending(rid RID, index string, key []byte) (Pending, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chains[rid]
	if c == nil {
		return Pending{}, false
	}
	for i, p := range c.pend {
		if p.Index == index && string(p.Key) == string(key) {
			c.pend = append(c.pend[:i], c.pend[i+1:]...)
			return p, true
		}
	}
	return Pending{}, false
}

// RestorePending re-registers a deferred removal taken by TakePending.
func (s *VersionStore) RestorePending(rid RID, p Pending) {
	s.mu.Lock()
	if c := s.chains[rid]; c != nil {
		c.pend = append(c.pend, p)
	}
	s.mu.Unlock()
}

// PruneWork lists the physical cleanup a Prune pass produced; the caller
// (holding the table's exclusive lock) applies it to the heap and the
// indexes outside the store's mutex, keeping storage.version a leaf class.
type PruneWork struct {
	// HeapRIDs are the current heap slots of fully dead rows.
	HeapRIDs []RID
	// Entries are index entries whose superseding versions passed the
	// watermark.
	Entries []Pending
}

// Prune discards versions no snapshot at or after watermark can observe:
// versions older than each chain's anchor version (the newest with commit
// <= watermark), deferred index entries whose superseding commit passed
// the watermark, and whole chains whose visible state at the watermark is
// a tombstone.
func (s *VersionStore) Prune(watermark int64) PruneWork {
	var work PruneWork
	var pruned int64
	s.mu.Lock()
	seen := make(map[*chain]bool)
	for _, c := range s.chains {
		if c == nil || seen[c] {
			continue
		}
		seen[c] = true

		// Sweep deferred index-entry removals.
		kept := c.pend[:0]
		for _, p := range c.pend {
			if ts := p.By.commit.Load(); ts != 0 && ts <= watermark {
				work.Entries = append(work.Entries, p)
			} else {
				kept = append(kept, p)
			}
		}
		c.pend = kept

		head := c.head.Load()
		if head == nil {
			continue
		}
		// Whole-row death: the version visible at the watermark is a
		// tombstone, so no live or future snapshot sees any data.
		if ts := head.commit.Load(); head.Tombstone() && ts != 0 && ts <= watermark {
			work.HeapRIDs = append(work.HeapRIDs, c.rid)
			work.Entries = append(work.Entries, c.pend...)
			c.pend = nil
			pruned += int64(chainLen(head))
			for _, r := range c.rids {
				delete(s.chains, r)
			}
			continue
		}
		// Interior truncation below the newest watermark-visible version.
		for v := head; v != nil; v = v.next.Load() {
			if ts := v.commit.Load(); ts != 0 && ts <= watermark {
				if tail := v.next.Load(); tail != nil {
					pruned += int64(chainLen(tail))
					v.next.Store(nil)
				}
				break
			}
		}
	}
	s.mu.Unlock()
	if pruned > 0 {
		s.stats.Pruned.Add(pruned)
		s.stats.Retained.Add(-pruned)
	}
	return work
}

// Chains returns the number of live chains (diagnostics and tests).
func (s *VersionStore) Chains() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[*chain]bool)
	for _, c := range s.chains {
		if c != nil {
			seen[c] = true
		}
	}
	return len(seen)
}
