package ingest

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/store"
)

// Dataset is one registered dataset: its ingestion result plus the surface
// generated from the registered table.
type Dataset struct {
	// Info is the ingestion result (Info.Table is the registered table).
	Info *Result
	// Surface is the auto-generated verification surface.
	Surface *Surface
}

// Registry manages the ingested datasets of one database: registration into
// the catalog, surface generation, and (when a store is attached)
// persistence across restarts. Base tables — anything in the database the
// registry did not add — are never touched. All methods are safe for
// concurrent use.
type Registry struct {
	mu sync.Mutex
	db *sqldb.Database
	st *store.Store // nil = in-memory only
	// defaults fill unset budget fields of ingestion options.
	defaults Options
	byName   map[string]*Dataset
	order    []string // lowercased names, ingestion order
}

// NewRegistry constructs a registry over db. st may be nil (datasets then
// live only as long as the process). defaults supply SampleRows/MaxBytes/
// Seed for ingestions that leave them zero.
func NewRegistry(db *sqldb.Database, st *store.Store, defaults Options) *Registry {
	return &Registry{db: db, st: st, defaults: defaults, byName: make(map[string]*Dataset)}
}

// fill merges the registry defaults into opts.
func (r *Registry) fill(opts Options) Options {
	if opts.SampleRows <= 0 {
		opts.SampleRows = r.defaults.SampleRows
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = r.defaults.MaxBytes
	}
	if opts.Seed == 0 {
		opts.Seed = r.defaults.Seed
	}
	return opts
}

// IngestFrom ingests from a reader (with the registry defaults filling
// unset budgets) and registers the result. It is the one-call path the
// serve handlers use; the reader is consumed at most MaxBytes+1 bytes.
func (r *Registry) IngestFrom(rd io.Reader, opts Options) (*Dataset, error) {
	res, err := Ingest(rd, r.fill(opts))
	if err != nil {
		return nil, err
	}
	return r.Add(res)
}

// Add registers an ingestion result: the table enters the database catalog,
// the surface is generated, and the dataset is persisted when a store is
// attached. Re-adding an existing dataset replaces it (idempotent for equal
// content); a name colliding with a base table is rejected.
func (r *Registry) Add(res *Result) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(res.Name)
	prev := r.db.Table(res.Name)
	if _, isDataset := r.byName[key]; !isDataset && prev != nil {
		return nil, fmt.Errorf("ingest: table %q already exists and is not an ingested dataset", res.Name)
	}
	r.db.AddTable(res.Table)
	surface, err := BuildSurface(r.db, res.Name)
	if err != nil {
		// Roll the catalog back so a surfaceless table does not linger: the
		// dataset it would have replaced is registered again (it is frozen,
		// so it is the table its surface was built from), or none.
		if prev != nil {
			r.db.AddTable(prev)
		} else {
			r.db.RemoveTable(res.Name)
		}
		return nil, err
	}
	ds := &Dataset{Info: res, Surface: surface}
	if _, existed := r.byName[key]; !existed {
		r.order = append(r.order, key)
	}
	r.byName[key] = ds
	if r.st != nil {
		if err := r.st.Put(datasetKey(res.Name), encodeDataset(res)); err != nil {
			return nil, fmt.Errorf("ingest: persist %s: %w", res.Name, err)
		}
	}
	return ds, nil
}

// Get returns the named dataset, or nil.
func (r *Registry) Get(name string) *Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[strings.ToLower(name)]
}

// List returns the registered datasets in ingestion order.
func (r *Registry) List() []*Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Dataset, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.byName[k])
	}
	return out
}

// Delete removes a dataset from the registry and the catalog, and
// overwrites its persisted record with a tombstone so the dataset stays gone
// after a restart. It reports whether the dataset existed; base tables are
// not deletable.
func (r *Registry) Delete(name string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := r.byName[key]; !ok {
		return false, nil
	}
	delete(r.byName, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.db.RemoveTable(name)
	if r.st != nil {
		if err := r.st.Put(datasetKey(name), nil); err != nil {
			return true, fmt.Errorf("ingest: persist deletion of %s: %w", name, err)
		}
	}
	return true, nil
}

// LoadDataset restores one named dataset from the store. It pulls in only
// what the caller asked for, so a run that names specific datasets does not
// change its database fingerprint when unrelated datasets share the store.
func (r *Registry) LoadDataset(name string) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	if ds, already := r.byName[key]; already {
		return ds, nil
	}
	if r.st == nil {
		return nil, fmt.Errorf("ingest: dataset %q: no store attached", name)
	}
	if err := r.loadLocked(name); err != nil {
		return nil, err
	}
	return r.byName[key], nil
}

// loadLocked restores one dataset record into the registry and catalog.
func (r *Registry) loadLocked(name string) error {
	key := strings.ToLower(name)
	rec, ok := r.st.Get(datasetKey(name))
	if !ok || len(rec) == 0 { // an empty record is a deletion's tombstone
		return fmt.Errorf("ingest: dataset %q not found in store", name)
	}
	res, err := decodeDataset(rec)
	if err != nil {
		return fmt.Errorf("ingest: dataset %q: %w", name, err)
	}
	if r.db.Table(res.Name) != nil {
		return fmt.Errorf("ingest: persisted dataset %q collides with an existing table", res.Name)
	}
	r.db.AddTable(res.Table)
	surface, err := BuildSurface(r.db, res.Name)
	if err != nil {
		return fmt.Errorf("ingest: dataset %q: %w", name, err)
	}
	r.byName[key] = &Dataset{Info: res, Surface: surface}
	r.order = append(r.order, key)
	return nil
}
