package registry

import "sort"

// This file is the registry's indexed conflict engine: the dynamic
// property-posting index (property.Index) combined with the static
// conflict matrix as a short-circuit overlay. All functions here run
// under r.mu (read or write as noted) — one coherent snapshot per query,
// never the lock-per-candidate churn of the old pairwise scan.
//
// Index invariant: r.idx contains exactly the registered views that are
// not lost, keyed by view name, each under its current property set.
// Register/SetProps/Unregister/SetLost maintain it incrementally; lost
// views leave the index (they never appear in a conflict set) and
// re-enter with their retained property set when found again.
//
// Query plan for ConflictingWith(v):
//
//  1. defaultRel == Dynamic (the default): union the candidate postings
//     for v's property names from the index (each candidate verified with
//     the exact Set.Overlaps — no false positives), drop candidates whose
//     static entry overrides to Conflict or NoConflict, then add every
//     static-Conflict partner from the per-view adjacency. O(log n +
//     matches + deg_static(v)).
//  2. defaultRel == NoConflict: pairs without a static entry never
//     conflict, so the dynamic index is not consulted at all — only v's
//     static adjacency (Conflict partners, plus Dynamic partners checked
//     pairwise). O(deg_static(v)).
//  3. defaultRel == Conflict (the worst-case "everyone conflicts"
//     baseline): the answer is inherently O(n) — every registered view
//     minus static-NoConflict and failing static-Dynamic pairs.
//
// Lost views are filtered structurally (they are not in the index); the
// activeOnly filter is applied per candidate.

// indexInsertLocked adds a view's postings. Caller holds r.mu (write).
func (r *Registry) indexInsertLocked(v *ViewInfo) {
	if v.Lost {
		return
	}
	r.idx.Insert(v.Name, v.Props)
}

// indexRemoveLocked drops a view's postings. Caller holds r.mu (write).
func (r *Registry) indexRemoveLocked(name string) {
	r.idx.Remove(name)
}

// cachedStructuralLocked returns the view's sorted structural conflict
// set (activeOnly=false), from the epoch-keyed cache when it is still
// valid and recomputing it otherwise. Caller holds r.mu (read), which
// pins r.epoch for the duration; the cache itself is guarded by r.cmu so
// a read-locked query can publish its result. Per-query active filtering
// happens in ConflictingWith — activity flips do not bump the epoch, so
// the structural set survives them.
func (r *Registry) cachedStructuralLocked(name string) []string {
	r.cmu.Lock()
	if c, ok := r.confCache[name]; ok && c.epoch == r.epoch {
		r.cmu.Unlock()
		return c.names
	}
	r.cmu.Unlock()
	names := r.conflictingWithLocked(name, false)
	r.cmu.Lock()
	r.confCache[name] = &cachedConflicts{epoch: r.epoch, names: names}
	r.cmu.Unlock()
	return names
}

// staticRelationLocked resolves the static matrix for a pair in one map
// read: entries are stored under the canonical (min,max) key only, so
// both directions land on the same cell. Caller holds r.mu (read).
func (r *Registry) staticRelationLocked(a, b string) Relation {
	if a == b {
		return Conflict
	}
	if b < a {
		a, b = b, a
	}
	if rel, ok := r.static[[2]string{a, b}]; ok {
		return rel
	}
	return r.defaultRel
}

// conflictsLocked is Conflicts under one coherent snapshot. Caller holds
// r.mu (read).
func (r *Registry) conflictsLocked(a, b string) bool {
	va, okA := r.views[a]
	vb, okB := r.views[b]
	switch r.staticRelationLocked(a, b) {
	case Conflict:
		return okA && okB
	case NoConflict:
		return false
	default:
		return okA && okB && va.Props.Overlaps(vb.Props)
	}
}

// admissible reports whether a candidate may appear in a conflict set:
// registered, not the querying view, not lost, and marked active when
// the query demands it.
func admissible(v *ViewInfo, self string, activeOnly bool) bool {
	return v != nil && v.Name != self && !v.Lost && (!activeOnly || v.Active)
}

// conflictingWithLocked computes ConflictingWith under one coherent
// snapshot. Caller holds r.mu (read).
func (r *Registry) conflictingWithLocked(name string, activeOnly bool) []string {
	self, ok := r.views[name]
	if !ok {
		return nil
	}
	if r.defaultRel == Conflict {
		// The only possible plan when every unlisted pair conflicts by
		// default.
		return r.bruteConflictingWithLocked(self, activeOnly)
	}

	// The two sources below are disjoint — the index path keeps only
	// pairs whose static relation is Dynamic, the adjacency path only
	// non-Dynamic ones — so a plain slice collects without dedup.
	var out []string
	if r.defaultRel == Dynamic {
		// Dynamic candidates from the posting index, minus static
		// overrides (Conflict partners are re-added below so the static
		// matrix — not the property overlap — decides them).
		noStatic := len(r.static) == 0
		r.idx.Overlapping(self.Props, func(n string) bool {
			if !admissible(r.views[n], name, activeOnly) {
				return true
			}
			if noStatic || r.staticRelationLocked(name, n) == Dynamic {
				out = append(out, n)
			}
			return true
		})
	}
	// Static overlay via the per-view adjacency: Conflict partners join
	// unconditionally; under a NoConflict default, Dynamic partners are
	// the only pairs that still need a property check.
	for n, rel := range r.staticBy[name] {
		v := r.views[n]
		if !admissible(v, name, activeOnly) {
			continue
		}
		switch rel {
		case Conflict:
			out = append(out, n)
		case Dynamic:
			if r.defaultRel == NoConflict && self.Props.Overlaps(v.Props) {
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// bruteConflictingWithLocked is a pairwise scan over the whole view table
// under the same single snapshot: the plan for defaultRel == Conflict,
// where the answer is inherently O(n) (the multicast baseline runs it),
// and the reference the equivalence tests pit the indexed plans against.
func (r *Registry) bruteConflictingWithLocked(self *ViewInfo, activeOnly bool) []string {
	var out []string
	for n, v := range r.views {
		if !admissible(v, self.Name, activeOnly) {
			continue
		}
		if r.conflictsLocked(self.Name, n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
