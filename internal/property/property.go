package property

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Property is the paper's tuple p = (name_p, D_p): a unique name plus a
// value domain. Properties are value types; the zero value has an empty
// name and empty domain and intersects with nothing.
type Property struct {
	Name   string
	Domain Domain
}

// New constructs a property.
func New(name string, d Domain) Property { return Property{Name: name, Domain: d} }

// Intersect implements Definition 3: the intersection of p and q is empty
// unless the names match, in which case it is (name, D_p ∩ D_q).
func (p Property) Intersect(q Property) Property {
	if p.Name != q.Name {
		return Property{}
	}
	return Property{Name: p.Name, Domain: p.Domain.Intersect(q.Domain)}
}

// Overlaps reports whether p ∩ q is non-empty.
func (p Property) Overlaps(q Property) bool {
	return p.Name == q.Name && p.Domain.Overlaps(q.Domain)
}

// IsEmpty reports whether the property carries no values (empty domain or
// empty name).
func (p Property) IsEmpty() bool { return p.Name == "" || p.Domain.IsEmpty() }

// Equal reports structural equality.
func (p Property) Equal(q Property) bool {
	return p.Name == q.Name && p.Domain.Equal(q.Domain)
}

// String renders "name=domain", e.g. `Flights={10,11,12}` or `Seats=[0,100]`.
func (p Property) String() string { return p.Name + "=" + p.Domain.String() }

// Set is a set of properties. The paper assumes no two properties in a set
// share a name, so Set is keyed by name. The zero value is the empty set.
// A Set is immutable once built: no method changes it, so a set is shared
// freely by value across goroutines and layers and never needs copying.
// Changing a view's properties means building a new set.
type Set struct {
	byName map[string]Property
}

// NewSet builds a set from the given properties. Later duplicates of a name
// replace earlier ones (last writer wins), mirroring "a set of properties
// does not contain two properties with the same name". With no properties
// it is the zero Set, which allocates nothing.
func NewSet(props ...Property) Set {
	if len(props) == 0 {
		return Set{}
	}
	s := Set{byName: make(map[string]Property, len(props))}
	for _, p := range props {
		if p.IsEmpty() {
			continue
		}
		s.byName[p.Name] = p
	}
	return s
}

// Len returns the number of (non-empty) properties in the set.
func (s Set) Len() int { return len(s.byName) }

// IsEmpty reports whether the set has no properties.
func (s Set) IsEmpty() bool { return len(s.byName) == 0 }

// Get returns the property with the given name and whether it exists.
func (s Set) Get(name string) (Property, bool) {
	p, ok := s.byName[name]
	return p, ok
}

// Names returns the sorted property names.
func (s Set) Names() []string {
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Properties returns the properties sorted by name.
func (s Set) Properties() []Property {
	out := make([]Property, 0, len(s.byName))
	for _, n := range s.Names() {
		out = append(out, s.byName[n])
	}
	return out
}

// Each calls f with each property in name order. It reads the set in
// place, so for a set of up to eight properties it allocates nothing: the
// codecs write sets this way.
func (s Set) Each(f func(Property)) {
	var buf [8]string
	names := buf[:0]
	for n := range s.byName {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		f(s.byName[n])
	}
}

// Intersect implements Definition 2: P ∩ Q = { p_i ∩ q_j | non-empty }.
// Because names are unique within a set, only same-named pairs can produce
// non-empty intersections, so the computation is a map join.
func (s Set) Intersect(o Set) Set {
	small, big := s, o
	if len(big.byName) < len(small.byName) {
		small, big = big, small
	}
	out := Set{byName: make(map[string]Property)}
	for name, p := range small.byName {
		if q, ok := big.byName[name]; ok {
			r := p.Intersect(q)
			if !r.IsEmpty() {
				out.byName[name] = r
			}
		}
	}
	return out
}

// Overlaps implements Definition 1 (dynConfl): it reports whether P ∩ Q is
// non-empty, i.e. whether the two views potentially share data.
func (s Set) Overlaps(o Set) bool {
	small, big := s, o
	if len(big.byName) < len(small.byName) {
		small, big = big, small
	}
	for name, p := range small.byName {
		if q, ok := big.byName[name]; ok && p.Overlaps(q) {
			return true
		}
	}
	return false
}

// Equal reports whether the two sets contain structurally equal properties.
func (s Set) Equal(o Set) bool {
	if len(s.byName) != len(o.byName) {
		return false
	}
	for name, p := range s.byName {
		q, ok := o.byName[name]
		if !ok || !p.Equal(q) {
			return false
		}
	}
	return true
}

// String renders the set as "name1=dom1; name2=dom2" in name order.
func (s Set) String() string {
	parts := make([]string, 0, len(s.byName))
	for _, p := range s.Properties() {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, "; ")
}

// DynConfl is the paper's dynConfl function (Definition 1) as a standalone
// helper: it returns 1 when the property sets of two views intersect and 0
// otherwise.
func DynConfl(p, q Set) int {
	if p.Overlaps(q) {
		return 1
	}
	return 0
}

// MarshalText renders the set in the ParseSet syntax, making Set usable
// with encoding-aware code.
func (s Set) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the ParseSet syntax and replaces *s with the result.
func (s *Set) UnmarshalText(b []byte) error {
	parsed, err := ParseSet(string(b))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

var _ fmt.Stringer = Set{}
