package property

// Index is an incrementally maintained posting index over property sets:
// "which keys have a set that overlaps this set?" in O(log n + matches)
// instead of a pairwise scan. It is the data structure behind the
// registry's dynamic conflict engine and the shard router's
// conflict-affinity placement.
//
// Per property name the index keeps two postings:
//
//   - a numeric segment treap: every indexed domain with a numeric
//     footprint contributes one covering segment — an interval domain
//     contributes [min,max], a discrete domain the covering segment of
//     its numeric members. The treap is an augmented BST (subtree max
//     endpoint) with deterministic hash-derived priorities, so insert,
//     remove, and stabbing queries are O(log n) expected and independent
//     of insertion order. Each node carries its exact domain, so a
//     covering-segment hit is verified with one Domain.Overlaps — no
//     false positives escape, and no per-candidate set walk is needed.
//   - an inverted member map: every discrete member points at the keys
//     whose domain contains it, covering the non-numeric members the
//     segment treap cannot see. A member hit is exact by construction
//     (both domains contain the member), so it needs no verification.
//
// Queries report precisely the keys whose sets overlap the query set —
// the same answer a pairwise Set.Overlaps scan gives, at posting-lookup
// cost.
//
// Index is not safe for concurrent use; callers guard it with the same
// lock that guards the table it mirrors.
type Index struct {
	names map[string]*nameIndex
	sets  map[string]Set // key -> currently indexed set
}

// nameIndex is the per-property-name posting pair.
type nameIndex struct {
	segs    *segNode                       // covering-segment treap
	members map[string]map[string]struct{} // discrete member -> keys
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{names: map[string]*nameIndex{}, sets: map[string]Set{}}
}

// Len returns the number of indexed keys.
func (x *Index) Len() int { return len(x.sets) }

// Insert indexes a set under a key, replacing any previous set for the
// key. The index retains the set (domains are immutable; callers that
// mutate their Set in place must pass a clone).
func (x *Index) Insert(key string, s Set) {
	if _, ok := x.sets[key]; ok {
		x.Remove(key)
	}
	x.sets[key] = s
	for _, p := range s.byName {
		ni := x.names[p.Name]
		if ni == nil {
			ni = &nameIndex{members: map[string]map[string]struct{}{}}
			x.names[p.Name] = ni
		}
		if lo, hi, ok := numericFootprint(p.Domain); ok {
			ni.segs = segInsert(ni.segs, &segNode{
				lo: lo, hi: hi, key: key, dom: p.Domain, prio: segPrio(key, p.Name),
			})
		}
		if p.Domain.Kind() == KindDiscrete {
			for _, m := range p.Domain.members {
				keys := ni.members[m]
				if keys == nil {
					keys = map[string]struct{}{}
					ni.members[m] = keys
				}
				keys[key] = struct{}{}
			}
		}
	}
}

// Remove drops a key's postings (idempotent).
func (x *Index) Remove(key string) {
	s, ok := x.sets[key]
	if !ok {
		return
	}
	delete(x.sets, key)
	for _, p := range s.byName {
		ni := x.names[p.Name]
		if ni == nil {
			continue
		}
		if lo, hi, ok := numericFootprint(p.Domain); ok {
			ni.segs = segRemove(ni.segs, lo, hi, key)
		}
		if p.Domain.Kind() == KindDiscrete {
			for _, m := range p.Domain.members {
				if keys := ni.members[m]; keys != nil {
					delete(keys, key)
					if len(keys) == 0 {
						delete(ni.members, m)
					}
				}
			}
		}
		if ni.segs == nil && len(ni.members) == 0 {
			delete(x.names, p.Name)
		}
	}
}

// Overlapping calls fn once per indexed key whose set overlaps q, in
// unspecified order. fn returning false stops the enumeration. The query
// set's own key, if indexed, is reported like any other; callers exclude
// self. Empty query sets overlap nothing.
//
// The common query — one interval-domain property — runs allocation-free
// through the segment treap: each key posts at most one segment per name,
// so no dedup set is needed. Discrete query domains and multi-property
// sets can surface a key through several postings; those paths dedup
// through a visited set.
func (x *Index) Overlapping(q Set, fn func(key string) bool) {
	// A key must be reported once even when several postings surface it:
	// dedup is needed unless exactly one property contributes and its
	// postings are key-unique (the treap; member lists can repeat a key).
	sources := 0
	needSeen := false
	for _, p := range q.byName {
		if x.names[p.Name] == nil {
			continue
		}
		sources++
		if p.Domain.Kind() == KindDiscrete {
			needSeen = true
		}
	}
	if sources == 0 {
		return
	}
	var seen map[string]struct{}
	if needSeen || sources > 1 {
		seen = make(map[string]struct{})
	}
	stopped := false
	for _, p := range q.byName {
		ni := x.names[p.Name]
		if ni == nil {
			continue
		}
		dom := p.Domain
		emit := func(key string) bool {
			if seen != nil {
				if _, dup := seen[key]; dup {
					return true
				}
				seen[key] = struct{}{}
			}
			if !fn(key) {
				stopped = true
				return false
			}
			return true
		}
		if lo, hi, ok := numericFootprint(dom); ok {
			segQuery(ni.segs, lo, hi, func(n *segNode) bool {
				// The covering segments overlap; confirm the domains do
				// (exact for interval/interval, where the segment is the
				// domain; a discrete side can have gaps the segment hides).
				if !dom.Overlaps(n.dom) {
					return true
				}
				return emit(n.key)
			})
		}
		if stopped {
			return
		}
		if dom.Kind() == KindDiscrete {
			for _, m := range dom.members {
				for key := range ni.members[m] {
					// Exact: both domains contain member m.
					if !emit(key) {
						return
					}
				}
			}
		}
	}
}

// numericFootprint returns the smallest interval covering a domain's
// numeric values: the bounds of an interval domain, the min/max parseable
// member of a discrete domain. ok is false when the domain has no numeric
// values (empty, or discrete with only non-numeric members).
func numericFootprint(d Domain) (lo, hi float64, ok bool) {
	switch d.kind {
	case KindInterval:
		return d.min, d.max, true
	case KindDiscrete:
		for _, m := range d.members {
			v, err := parseFloat(m)
			if err != nil {
				continue
			}
			if !ok {
				lo, hi, ok = v, v, true
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi, ok
	default:
		return 0, 0, false
	}
}
