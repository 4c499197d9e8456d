// Package registry implements Flecc's conflict engine: the static
// conflict map and the dynamic property-based conflict computation
// (paper §4.1, "Data properties"). It holds each view's property set and
// stamp, the static matrix and the conflict index — no activity: whether
// a view is active or lost is its directory record's phase.
//
// The static map is a symmetric matrix over views. Entry values:
//
//	 1  the two views statically share data;
//	 0  the two views statically never share data;
//	-1  the relationship is dynamic — consult dynConfl over the views'
//	    current property sets.
//
// The matrix is created once when Flecc initializes; views registered
// later default to -1 (dynamic) against everyone, which is always safe.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"flecc/internal/property"
)

// Relation is a static-matrix cell value.
type Relation int8

const (
	// NoConflict (0): the views never share data.
	NoConflict Relation = 0
	// Conflict (1): the views statically share data.
	Conflict Relation = 1
	// Dynamic (-1): decide at run time from property sets.
	Dynamic Relation = -1
)

func (r Relation) String() string {
	switch r {
	case NoConflict:
		return "no-conflict"
	case Conflict:
		return "conflict"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// ViewInfo is what the registry tracks per registered view.
type ViewInfo struct {
	// Name is the view's unique identifier.
	Name string
	// Props is the view's current dynamic property set.
	Props property.Set
	// Stamp is the registry epoch at which Props was installed (Register
	// or SetProps), unique per installation.
	Stamp uint64
	// Active is set only by the SetActive shim (see there).
	Active bool
	// Lost marks a view the directory manager evicted after its cache
	// manager became unreachable. A lost view keeps its registration but
	// leaves the conflict index, so it appears in no conflict set until
	// it is found again.
	Lost bool
}

// Registry tracks registered views, their property sets, and the static
// conflict matrix. It is safe for concurrent use.
//
// Conflict queries are served by an incrementally maintained posting
// index over the views' property sets (see index.go): ConflictingWith is
// O(log n + matches) instead of a pairwise O(n) scan, with the static
// matrix applied as a short-circuit overlay so static pairs never touch
// the dynamic index.
type Registry struct {
	mu    sync.RWMutex
	views map[string]*ViewInfo
	// static holds the matrix under canonical (min,max) pair keys only,
	// so either direction resolves in one map read.
	static map[[2]string]Relation
	// staticBy is the per-view adjacency of the static matrix — the
	// overlay ConflictingWith walks instead of scanning all pairs.
	staticBy map[string]map[string]Relation
	// defaultRel applies to pairs without a static entry.
	defaultRel Relation
	// idx is the dynamic conflict index over non-lost registered views.
	idx *property.Index
	// epoch counts structural mutations: anything that can change a
	// conflict set (register, unregister, property changes, lost
	// transitions, static-matrix and default-relation edits).
	// Cached conflict sets and the directory's lane map are keyed by it:
	// an unchanged epoch proves a cached answer is still exact.
	epoch uint64
	// cmu guards confCache independently of r.mu so a read-locked query
	// can still fill the cache.
	cmu sync.Mutex
	// confCache holds per view the sorted structural conflict set
	// (activeOnly=false) computed at a given epoch (see index.go).
	confCache map[string]*cachedConflicts
}

// cachedConflicts is one memoized structural conflict set.
type cachedConflicts struct {
	epoch uint64
	names []string
}

// New returns an empty registry whose unspecified pairs are Dynamic —
// the safe default for views that may change their properties at run time.
func New() *Registry {
	return &Registry{
		views:      map[string]*ViewInfo{},
		static:     map[[2]string]Relation{},
		staticBy:   map[string]map[string]Relation{},
		defaultRel: Dynamic,
		idx:        property.NewIndex(),
		confCache:  map[string]*cachedConflicts{},
	}
}

// Epoch returns the structural-mutation epoch. Callers that cache
// anything derived from conflict sets (the directory's lane map, the
// per-view conflict-set cache) revalidate against it.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// SetDefaultRelation changes the relation assumed for pairs with no static
// entry. Setting it to Conflict reproduces the worst-case
// application-oblivious behaviour ("all views conflict and the updates
// should be sent to all views").
func (r *Registry) SetDefaultRelation(rel Relation) {
	r.mu.Lock()
	r.defaultRel = rel
	r.epoch++
	r.mu.Unlock()
}

// SetStatic records a symmetric static-matrix entry for a view pair. The
// entry is stored once under the canonical pair key and mirrored into the
// per-view adjacency that ConflictingWith overlays on the dynamic index.
func (r *Registry) SetStatic(a, b string, rel Relation) {
	if a == b {
		return // the diagonal is fixed at Conflict
	}
	r.mu.Lock()
	ca, cb := a, b
	if cb < ca {
		ca, cb = cb, ca
	}
	r.static[[2]string{ca, cb}] = rel
	for _, e := range [2][2]string{{a, b}, {b, a}} {
		adj := r.staticBy[e[0]]
		if adj == nil {
			adj = map[string]Relation{}
			r.staticBy[e[0]] = adj
		}
		adj[e[1]] = rel
	}
	r.epoch++
	r.mu.Unlock()
}

// Register adds a view with its initial property set. Registering an
// existing name fails.
func (r *Registry) Register(name string, props property.Set) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.views[name]; dup {
		return fmt.Errorf("registry: view %q already registered", name)
	}
	r.epoch++
	v := &ViewInfo{Name: name, Props: props, Stamp: r.epoch}
	r.views[name] = v
	r.indexInsertLocked(v)
	return nil
}

// Unregister removes a view (idempotent).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	if _, ok := r.views[name]; ok {
		delete(r.views, name)
		r.indexRemoveLocked(name)
		r.epoch++
		r.cmu.Lock()
		delete(r.confCache, name)
		r.cmu.Unlock()
	}
	r.mu.Unlock()
}

// Has reports whether a view is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.views[name]
	return ok
}

// SetProps replaces a view's dynamic property set.
func (r *Registry) SetProps(name string, props property.Set) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.views[name]
	if !ok {
		return fmt.Errorf("registry: view %q not registered", name)
	}
	r.epoch++
	v.Props, v.Stamp = props, r.epoch
	// Re-index under the new set; a lost view stays out of the index and
	// re-enters with the updated set when found again.
	r.indexInsertLocked(v)
	return nil
}

// Props returns a view's current property set (the empty set when the
// view is not registered). Sets are immutable, so it is the registered set
// itself, not a copy.
func (r *Registry) Props(name string) (property.Set, bool) {
	props, stamp := r.Scope(name)
	return props, stamp != 0
}

// Scope is Props with the set's Stamp (0 when the view is not
// registered). Two reads returning the same stamp saw one registration,
// unchanged in between.
func (r *Registry) Scope(name string) (property.Set, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := r.views[name]; ok {
		return v.Props, v.Stamp
	}
	return property.Set{}, 0
}

// SetActive sets the flag ConflictingWith's activeOnly filter reads.
// The directory keeps activity in its own per-view records and never
// calls it; it stays for the benchmark's registry replay.
func (r *Registry) SetActive(name string, active bool) {
	r.mu.Lock()
	if v, ok := r.views[name]; ok {
		v.Active = active
	}
	r.mu.Unlock()
}

// SetLost takes a view out of the conflict index (lost) or puts it back
// (found again). Unknown names are ignored.
func (r *Registry) SetLost(name string, lost bool) {
	r.mu.Lock()
	if v, ok := r.views[name]; ok && v.Lost != lost {
		v.Lost = lost
		if lost {
			r.indexRemoveLocked(name)
		} else {
			r.indexInsertLocked(v)
		}
		r.epoch++
	}
	r.mu.Unlock()
}

// Views returns the sorted names of all registered views.
func (r *Registry) Views() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.views))
	for n := range r.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Conflicts decides whether two registered views share data, combining the
// static matrix with the dynamic property intersection:
//
//   - static 1 → true,
//   - static 0 → false,
//   - static -1 → dynConfl over the views' current property sets.
//
// Unregistered views never conflict. The static relation, registration
// checks, and property comparison all happen under one coherent read lock.
func (r *Registry) Conflicts(a, b string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.conflictsLocked(a, b)
}

// ConflictingWith returns the sorted names of registered views that share
// data with the given view (excluding itself). Lost views never appear in
// the set. activeOnly further keeps only views marked by SetActive; the
// directory passes false and filters by its own records.
//
// The whole query runs under one read lock — one coherent snapshot, no
// set-props interleaving mid-scan — and is served by the conflict index
// in O(log n + matches) (see index.go for the per-defaultRel plans).
// Repeated queries between structural mutations are served from a cached
// per-view structural set keyed by the mutation epoch.
func (r *Registry) ConflictingWith(name string, activeOnly bool) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	structural := r.cachedStructuralLocked(name)
	out := make([]string, 0, len(structural))
	for _, n := range structural {
		if admissible(r.views[n], name, activeOnly) {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
