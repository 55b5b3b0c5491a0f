package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/index"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// TableStore binds a catalog table to its heap file, version chains and
// index structures.
type TableStore struct {
	Meta    *catalog.Table
	Heap    *storage.HeapFile
	Indexes map[string]*index.BTree // keyed by index name

	// Vers holds the row versions: the chains are the authoritative read
	// path (snapshot and current mode), the heap mirrors the current row
	// images, and physical deletes are deferred to the version-garbage
	// collector.
	Vers *storage.VersionStore
}

// NewTableStore creates storage for a table, including B+trees for every
// index already declared in the catalog entry. The version store reports
// into stats, which an engine shares across all its tables.
func NewTableStore(meta *catalog.Table, pool *storage.BufferPool, stats *storage.VersionStats) (*TableStore, error) {
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		return nil, err
	}
	ts := &TableStore{
		Meta:    meta,
		Heap:    heap,
		Indexes: make(map[string]*index.BTree),
		Vers:    storage.NewVersionStore(stats),
	}
	for _, ix := range meta.Indexes {
		ts.Indexes[ix.Name] = index.New(ix.Unique)
	}
	return ts, nil
}

// IndexKey extracts the encoded key of row for the given index.
func (ts *TableStore) IndexKey(ix *catalog.Index, row Row) []byte {
	vals := make([]sqltypes.Value, len(ix.Columns))
	for i, ord := range ix.Columns {
		vals[i] = row[ord]
	}
	return sqltypes.EncodeKey(vals...)
}

// AddIndex registers a new B+tree for ix and populates it from the current
// row versions (the heap still holds deleted-but-unpruned rows). Entries
// carry anchor RIDs.
func (ts *TableStore) AddIndex(ix *catalog.Index) error {
	bt := index.New(ix.Unique)
	ncols := len(ts.Meta.Columns)
	for _, cr := range ts.Vers.CurrentScan() {
		row, err := DecodeRow(cr.Rec, ncols)
		if err != nil {
			return err
		}
		if err := bt.Insert(ts.IndexKey(ix, row), cr.Anchor); err != nil {
			return fmt.Errorf("exec: building index %s: %w", ix.Name, err)
		}
	}
	ts.Indexes[ix.Name] = bt
	return nil
}

// PruneVersions runs one version-garbage-collection pass at the given
// watermark and applies the physical cleanup: stale index entries whose
// superseding commits every snapshot has passed, and heap slots of rows
// deleted before the watermark. The caller must hold the table's exclusive
// lock (Prune itself only takes the version store's leaf latch).
func (ts *TableStore) PruneVersions(watermark int64) {
	work := ts.Vers.Prune(watermark)
	for _, p := range work.Entries {
		if bt := ts.Indexes[p.Index]; bt != nil {
			bt.Delete(p.Key, p.Rid)
		}
	}
	for _, rid := range work.HeapRIDs {
		_ = ts.Heap.Delete(rid) // slot already reclaimed is fine
	}
}

// StoreProvider resolves table names to their stores.
type StoreProvider interface {
	Store(table string) (*TableStore, error)
}

// Registry is a thread-safe StoreProvider backed by a map.
type Registry struct {
	// mu protects the store map.
	//sqlcm:lock exec.registry
	//sqlcm:guards stores
	mu     sync.RWMutex
	stores map[string]*TableStore
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]*TableStore)}
}

// Store implements StoreProvider.
func (r *Registry) Store(table string) (*TableStore, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts, ok := r.stores[table]
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %q", table)
	}
	return ts, nil
}

// Names returns the registered table names in sorted order (the
// version-garbage collector iterates tables in deterministic order, which
// also matches the statement-level lock ordering).
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.stores))
	for name := range r.stores {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Register installs a table store.
func (r *Registry) Register(name string, ts *TableStore) {
	r.mu.Lock()
	r.stores[name] = ts
	r.mu.Unlock()
}

// Unregister removes a table store.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.stores, name)
	r.mu.Unlock()
}

// EncodeRow serializes a row with the self-delimiting value encoding.
func EncodeRow(row Row) []byte {
	var out []byte
	for _, v := range row {
		out = v.Encode(out)
	}
	return out
}

// DecodeRow parses exactly ncols values from rec.
func DecodeRow(rec []byte, ncols int) (Row, error) {
	row := make(Row, 0, ncols)
	rest := rec
	for i := 0; i < ncols; i++ {
		v, r, err := sqltypes.Decode(rest)
		if err != nil {
			return nil, fmt.Errorf("exec: decoding column %d: %w", i, err)
		}
		row = append(row, v)
		rest = r
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("exec: %d trailing bytes after %d columns", len(rest), ncols)
	}
	return row, nil
}

// CoerceValue converts v to the column kind, applying the widenings the SQL
// layer permits (INT→FLOAT, BOOL→INT, INT→BOOL, string→DATETIME parse,
// integral FLOAT→INT). NULL passes through.
func CoerceValue(kind sqltypes.Kind, v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case sqltypes.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return sqltypes.NewFloat(f), nil
		}
	case sqltypes.KindInt:
		switch v.Kind() {
		case sqltypes.KindBool:
			return sqltypes.NewInt(v.Int()), nil
		case sqltypes.KindFloat:
			if v.Float() == float64(int64(v.Float())) {
				return sqltypes.NewInt(int64(v.Float())), nil
			}
		}
	case sqltypes.KindBool:
		if i, ok := v.AsInt(); ok {
			return sqltypes.NewBool(i != 0), nil
		}
	case sqltypes.KindTime:
		if v.Kind() == sqltypes.KindString {
			for _, layout := range []string{
				"2006-01-02 15:04:05.000000",
				"2006-01-02 15:04:05",
				"2006-01-02",
				time.RFC3339,
			} {
				if t, err := time.Parse(layout, v.Str()); err == nil {
					return sqltypes.NewTime(t), nil
				}
			}
		}
	case sqltypes.KindString:
		// No implicit conversion to string: be strict.
	}
	return sqltypes.Null, fmt.Errorf("exec: cannot convert %s %s to %s", v.Kind(), v, kind)
}
